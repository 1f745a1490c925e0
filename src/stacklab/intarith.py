"""Exact big-integer arithmetic: k-th root floors and rational powers.

Heights and orbit offsets routinely exceed 64 bits, so every quantity
entering a comparison is kept as a Python integer or Fraction and powers
like floor(n^(p/q)) are evaluated with exact integer root extraction.
Where a float is needed, `as_float` turns a value past the float range
into a ResourceGuard.  Every error class of the package but
`cli.SearchExhausted` derives from InvalidInput or ResourceGuard, so its
type carries its exit code.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The most bits that floor_pow lets a power of the base's numerator or
# denominator to the exponent's numerator p take.  Root extraction slows
# sharply with p: at this bound it takes up to about 60 ms, at p near 10^6 it
# runs for minutes.  Tests and benchmark workloads reach 51 bits.
POW_WORK_BOUND = 1 << 14


class InvalidInput(ValueError):
    """Input that fails validation; the base of every module's error class.
    The CLI exits 2 on it."""


class ResourceGuard(RuntimeError):
    """A configured memory/size guard tripped before any allocation.  The
    CLI exits 3 on it."""


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


def as_float(value, name: str) -> float:
    """`value` as a float; past the float range, ResourceGuard naming `name`."""
    try:
        return float(value)
    except OverflowError:
        raise ResourceGuard(f"{name} is too large for a float") from None


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for integers x >= 0, k >= 1, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or x in (0, 1):
        return x
    if k >= x.bit_length():
        return 1  # 1 < x < 2^k
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


def floor_pow(base, exponent: Fraction) -> int:
    """floor(base ** exponent) for a rational base >= 0 (an int or a
    Fraction) and a rational exponent >= 0, exactly.

    With base = num/den and exponent = p/q this is the integer q-th root of
    floor(num^p / den^p): a q-th root m <= y^(1/q) has m^q <= floor(y), as
    m^q is an integer, so flooring the radicand first changes nothing.
    """
    num, den = base.numerator, base.denominator
    p, q = exponent.numerator, exponent.denominator
    if num < 0 or p < 0:
        raise ValueError("floor_pow requires nonnegative base and exponent")
    # An int base has den = 1, whose power costs nothing.
    work = p * max(num.bit_length(), den.bit_length() if den > 1 else 0)
    if work > POW_WORK_BOUND:
        raise ResourceGuard(
            f"exponent {exponent} needs a power of {work} bits, above the "
            f"bound of {POW_WORK_BOUND}"
        )
    return iroot(num**p // den**p, q)

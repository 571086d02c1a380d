"""Exact rational arithmetic for sign-sum atom probabilities.

Everything here is integer or rational exact: probabilities are
`fractions.Fraction` values in canonical form (gcd-reduced, positive
denominator, exact total-order comparisons), binomial coefficients are
arbitrary-precision integers, and square-root ceilings are decided by
integer comparison.  No floating point enters any code path in this
module.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import InputError

# Canonical exact scalar type used across the package.  Fraction already
# provides the needed invariants: reduced form, denominator > 0, exact
# comparisons, hashability.
Rational = Fraction

# ASCII digits only: \d would also accept other scripts' digits, and
# int() also accepts those, a leading '+' and '_' separators.
_INTEGER_RE = re.compile(r"^-?[0-9]+$")
_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def binomial(n: int, m: int) -> int:
    """Binomial coefficient C(n, m); zero when m < 0 or m > n."""
    if n < 0:
        raise InputError(f"binomial: n must be nonnegative, got {n}")
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def delta(n: int, k: int) -> int:
    """Parity offset: 0 when n + k is even, 1 otherwise.

    k + delta(n, k) always has the parity of n, so it is an achievable
    value of an n-term sign sum.
    """
    if n < 1 or k < 0:
        raise InputError(f"delta: need n >= 1 and k >= 0, got n={n}, k={k}")
    return (n + k) % 2


def rademacher_atom(n: int, m: int) -> Fraction:
    """P(R_n = m) where R_n is a sum of n independent uniform +-1 signs.

    Zero unless |m| <= n and m has the same parity as n; otherwise
    C(n, (n+m)/2) / 2^n.
    """
    if n < 1:
        raise InputError(f"rademacher_atom: need n >= 1, got {n}")
    if abs(m) > n or (n - m) % 2 != 0:
        return Fraction(0)
    return Fraction(math.comb(n, (n + m) // 2), 2 ** n)


def lo_count(n: int, k: int) -> int:
    """Sign patterns the bound allows: C(n, ceil((n+k)/2)), the numerator
    of lo_bound(n, k) over the common denominator 2^n."""
    if n < 1 or k < 0:
        raise InputError(f"lo_bound: need n >= 1 and k >= 0, got n={n}, k={k}")
    return binomial(n, (n + k + 1) // 2)


def lo_bound(n: int, k: int) -> Fraction:
    """Largest atom of R_n at distance at least k from zero:
    C(n, ceil((n+k)/2)) / 2^n.

    Equals rademacher_atom(n, k + delta(n, k)).  Zero for k > n, since a
    sum of n unit-length steps cannot reach farther than n.
    """
    return Fraction(lo_count(n, k), 2 ** n)


def ceil_sqrt(q: Fraction | int) -> int:
    """Smallest integer t >= 0 with t*t >= q, for rational q >= 0.

    Decided purely by integer comparison: math.isqrt of floor(q) seeds
    the answer and is then corrected upward (at most two steps)."""
    if q < 0:
        raise InputError(f"ceil_sqrt: negative input {q}")
    t = math.isqrt(q.numerator // q.denominator)
    while t * t * q.denominator < q.numerator:
        t += 1
    return t


def floor_sqrt(q: Fraction | int) -> int:
    """Largest integer t >= 0 with t*t <= q, for rational q >= 0."""
    if q < 0:
        raise InputError(f"floor_sqrt: negative input {q}")
    t = math.isqrt(q.numerator // q.denominator)
    while (t + 1) * (t + 1) * q.denominator <= q.numerator:
        t += 1
    return t


def format_rational(q: Fraction | int) -> str:
    """Serialize as "p/q" in lowest terms, or "p" when the denominator is 1."""
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (base 10, optional leading minus on p only)."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise InputError(f"not a rational: {text!r}")
    num, _, den = s.partition("/")
    p, q = _digits(num, text), _digits(den or "1", text)
    if q == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(p, q)


def parse_int(text: str) -> int:
    """Parse a base-10 integer (optional leading minus)."""
    s = text.strip()
    if not _INTEGER_RE.match(s):
        raise InputError(f"not an integer: {text!r}")
    return _digits(s, text)


def _digits(s: str, text: str) -> int:
    """int(s) for a matched literal s of text.  int() refuses more than
    sys.get_int_max_str_digits() digits, and so does this, as an input
    error that names text."""
    try:
        return int(s)
    except ValueError:
        raise InputError(
            f"integer literal longer than {sys.get_int_max_str_digits()} "
            f"digits: {text!r}") from None

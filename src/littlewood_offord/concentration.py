"""Exact atom probabilities of random-sign vector sums.

All counting runs over integer keys: inputs are scaled by the lcm of
their coordinate denominators up front, so the hot loops add machine
integers (or small bigints) and equal sums collide exactly.  The atom
event is exact equality; no epsilon appears anywhere.

One kernel serves every dimension: each scaled d-vector is packed into
one integer as balanced base-m digits (first coordinate most
significant, m = 2 * max_j sum_i |v_ij| + 1), a linear map that is
injective on the box every signed sum lies in and that orders codes
lexicographically.  A target outside that box is answered 0 before it
is packed, since its code could alias a reachable sum.  At d = 1 the
code is the scaled value itself.

Two enumeration strategies:

* direct - sequential convolution of the +-v_i two-point distributions
  into one table, up to DIRECT_LIMIT variables.  Duplicate sums
  collapse as they appear, so the table is bounded by the number of
  distinct sums, not by 2^n pattern count.
* mitm - meet-in-the-middle for single-target probes: tabulate the
  first half, tabulate the second half, then count matching
  complements.  Splitting caps table sizes at 2^(n/2), which extends
  the reach to PROBE_LIMIT variables for point queries.

Full-distribution operations (sum tables, max_atom, rho_max_1d) have no
half-table shortcut and stop at EXHAUSTIVE_LIMIT.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import CapacityError, InputError
from .norms import RVector

DIRECT_LIMIT = 24
PROBE_LIMIT = 44
EXHAUSTIVE_LIMIT = DIRECT_LIMIT


def _canon(q) -> Fraction:
    # Fraction(Fraction(...)) copies; skip it on the hot paths.
    return q if type(q) is Fraction else Fraction(q)


def _as_fractions(a: Sequence) -> tuple[Fraction, ...]:
    out = tuple(_canon(q) for q in a)
    if not out:
        raise InputError("empty coefficient list")
    return out


def _as_vectors(v: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], int]:
    """Validated vectors as one flat coordinate tuple and their dimension."""
    rows = [tuple(_canon(c) for c in row) for row in v]
    if not rows:
        raise InputError("empty vector list")
    d = len(rows[0])
    if d == 0 or any(len(row) != d for row in rows):
        raise InputError("vectors must share a fixed nonzero dimension")
    return tuple(c for row in rows for c in row), d


def _int_table(values: tuple[int, ...]) -> dict[int, int]:
    table = {0: 1}
    for a in values:
        nxt: dict[int, int] = {}
        get = nxt.get
        for s, c in table.items():
            u = s + a
            nxt[u] = get(u, 0) + c
            u = s - a
            nxt[u] = get(u, 0) + c
        table = nxt
    return table


# Campaigns probe one vector multiset at many targets; caching both the
# lcm scaling and the packed tables turns the repeat queries into
# dictionary lookups.  A table depends on the packed codes alone, so one
# cache serves every dimension.  Cached values are shared and must never
# be mutated.
_cached_table_nd = lru_cache(maxsize=512)(_int_table)


@lru_cache(maxsize=512)
def _scaled(flat: tuple[Fraction, ...],
            d: int) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
    """Scale the n vectors in `flat` (d coordinates each) to integers and
    pack each one into a single integer code.

    Returns (codes, den, reach, m): den is the lcm of the denominators,
    reach[j] = sum_i |v_ij| bounds coordinate j of every signed sum, and
    the code of an integer vector u is sum_j u_j * m^(d-1-j) with
    m = 2 * max(reach) + 1.
    """
    den = math.lcm(*(q.denominator for q in flat))
    ints = [q.numerator * (den // q.denominator) for q in flat]
    reach = tuple(sum(abs(c) for c in ints[j::d]) for j in range(d))
    m = 2 * max(reach) + 1
    codes = []
    for i in range(0, len(ints), d):
        code = 0
        for c in ints[i:i + d]:
            code = code * m + c
        codes.append(code)
    return tuple(codes), den, reach, m


def _digits(code: int, m: int, d: int) -> tuple[int, ...]:
    """The integer vector packed into `code`."""
    half = m // 2
    digits = [0] * d
    for j in range(d - 1, -1, -1):
        code, r = divmod(code + half, m)
        digits[j] = r - half
    return tuple(digits)


def _unpack(code: int, m: int, d: int, den: int) -> RVector:
    return tuple(Fraction(s, den) for s in _digits(code, m, d))


def _probe_count(codes: tuple[int, ...], target: int) -> int:
    h = len(codes) // 2
    left = _int_table(codes[:h])
    right = _int_table(codes[h:])
    rget = right.get
    return sum(c * rget(target - s, 0) for s, c in left.items())


def _check_probe_size(n: int, method: str) -> str:
    if method == "auto":
        if n > PROBE_LIMIT:
            raise CapacityError(
                f"atom probes support at most {PROBE_LIMIT} vectors, got {n}")
        return "direct" if n <= DIRECT_LIMIT else "mitm"
    if method == "direct":
        if n > DIRECT_LIMIT:
            raise CapacityError(
                f"direct enumeration supports at most {DIRECT_LIMIT} vectors, got {n}")
        return method
    if method == "mitm":
        if n > PROBE_LIMIT:
            raise CapacityError(
                f"meet-in-the-middle supports at most {PROBE_LIMIT} vectors, got {n}")
        return method
    raise InputError(f"unknown method {method!r} (expected auto, direct, or mitm)")


def _atom(flat: tuple[Fraction, ...], d: int, target: RVector,
          method: str) -> Fraction:
    n = len(flat) // d
    method = _check_probe_size(n, method)
    codes, den, reach, m = _scaled(flat, d)
    key = 0
    for c, r in zip(target, reach):
        if den % c.denominator:
            return Fraction(0)  # off the lattice spanned by the vectors
        t = c.numerator * (den // c.denominator)
        if abs(t) > r:
            # Outside the reachable box.  Rejecting it here is also what
            # keeps the packed code injective: a target beyond the box
            # could alias a reachable sum.
            return Fraction(0)
        key = key * m + t
    if method == "direct":
        count = _cached_table_nd(codes).get(key, 0)
    else:
        count = _probe_count(codes, key)
    return Fraction(count, 2 ** n)


def _full_table(flat: tuple[Fraction, ...], d: int,
                what: str) -> tuple[dict[int, int], int, int]:
    """(packed table, den, m) for the operations that read every sum."""
    n = len(flat) // d
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"{what} at most {EXHAUSTIVE_LIMIT} vectors, got {n}")
    codes, den, _, m = _scaled(flat, d)
    return _cached_table_nd(codes), den, m


def atom_1d(a: Sequence, t, *, method: str = "auto") -> Fraction:
    """Exact P(sum_i eps_i a_i = t) over uniform independent signs eps_i.

    method "auto" picks direct convolution up to DIRECT_LIMIT variables
    and meet-in-the-middle up to PROBE_LIMIT; "direct" or "mitm" force
    one path (the equivalence tests exercise both against each other).
    """
    return _atom(_as_fractions(a), 1, (_canon(t),), method)


def atom_nd(v: Sequence[Sequence], x: Sequence, *, method: str = "auto") -> Fraction:
    """Exact P(sum_i eps_i v_i = x) over uniform independent signs eps_i."""
    flat, d = _as_vectors(v)
    target = tuple(_canon(c) for c in x)
    if len(target) != d:
        raise InputError(
            f"target has dimension {len(target)}, vectors have {d}")
    return _atom(flat, d, target, method)


def sum_table_1d(a: Sequence) -> dict[Fraction, int]:
    """Full distribution of sum_i eps_i a_i: sum value -> pattern count.

    Counts total 2^n across the table."""
    table, den, _ = _full_table(_as_fractions(a), 1, "full sum tables support")
    return {Fraction(s, den): c for s, c in table.items()}


def sum_table_nd(v: Sequence[Sequence]) -> dict[RVector, int]:
    """Full distribution of sum_i eps_i v_i: sum vector -> pattern count."""
    flat, d = _as_vectors(v)
    table, den, m = _full_table(flat, d, "full sum tables support")
    return {_unpack(key, m, d, den): c for key, c in table.items()}


def scaled_sums(v: Sequence[Sequence]) -> tuple[
        int, tuple[tuple[int, ...], ...], list[tuple[tuple[int, ...], int]]]:
    """The distribution of sum_i eps_i v_i on the integer lattice.

    Returns (den, vectors, sums): den is the lcm of the coordinate
    denominators, vectors are the v_i times den, and sums lists every
    attainable sum times den with its pattern count, sorted
    lexicographically.  One scaling and one cached table serve a sweep
    over all targets of one vector multiset.
    """
    flat, d = _as_vectors(v)
    table, den, m = _full_table(flat, d, "full sum tables support")
    codes = _scaled(flat, d)[0]
    # Code order is the lexicographic order of the sums.
    return (den, tuple(_digits(c, m, d) for c in codes),
            [(_digits(key, m, d), table[key]) for key in sorted(table)])


def reachable_sums_nd(v: Sequence[Sequence]) -> list[RVector]:
    """All attainable values of sum_i eps_i v_i, sorted lexicographically."""
    den, _, sums = scaled_sums(v)
    return [tuple(Fraction(s, den) for s in u) for u, _ in sums]


def max_atom(v: Sequence[Sequence]) -> tuple[RVector, Fraction]:
    """Most probable sum target with its exact probability.

    Ties break to the lexicographically smallest target, so results are
    reproducible across runs and platforms.
    """
    flat, d = _as_vectors(v)
    table, den, m = _full_table(
        flat, d, "max_atom enumerates the full table and supports")
    best_key = None
    best_count = -1
    # Code order is lexicographic order of the sums, so comparing codes
    # picks the same target as comparing the rational sums.
    for key, count in table.items():
        if count > best_count or (count == best_count and key < best_key):
            best_key = key
            best_count = count
    return (_unpack(best_key, m, d, den),
            Fraction(best_count, 2 ** (len(flat) // d)))


def rho_max_1d(a: Sequence) -> Fraction:
    """Largest atom probability max_t P(sum_i eps_i a_i = t)."""
    coeffs = _as_fractions(a)
    table, _, _ = _full_table(
        coeffs, 1, "rho_max_1d enumerates the full table and supports")
    return Fraction(max(table.values()), 2 ** len(coeffs))

"""Exact atom probabilities of random-sign vector sums.

All counting runs over integer keys: inputs are scaled by the lcm of
their coordinate denominators up front, so the hot loops add machine
integers (or small bigints) and equal sums collide exactly.  The atom
event is exact equality; no epsilon appears anywhere.

One kernel serves every dimension: each scaled d-vector is packed into
one integer as balanced base-m digits (first coordinate most
significant, m = 2 * max_j sum_i |v_ij| + 1), a linear map that is
injective on the box every signed sum lies in and that orders codes
lexicographically.  At d = 1 the code is the scaled value itself.

A target enters the same units by one rule, target_units, which the
verification chain (reduction.Chain.units) shares: den * x as an
integer vector u over one denominator q.  The 1-d queries are
one-column views: atom_1d is atom_nd and rho_max_1d is max_atom on
the column of coefficients.

Two ways to count:

* full tables - sequential convolution of the +-v_i two-point
  distributions into one table, up to EXHAUSTIVE_LIMIT variables.
  Duplicate sums collapse as they appear, so the table is bounded by
  the number of distinct sums, not by 2^n pattern count.  Sum tables,
  max_atom, rho_max_1d and sign_counter, which answers many keys on
  one set of values, read them.
* probe_count - the one single-target count, on integer vectors and a
  target (u, q) in their units: meet in the middle, tabulating the
  first floor(n/2) and the last ceil(n/2) values and counting matching
  complements, so neither table holds more than 2^ceil(n/2) entries
  and the probe reaches PROBE_LIMIT variables.  It answers 0 before
  packing when some u_j is not a multiple of q (off the lattice the
  vectors span) or |u_j| > q * reach_j (outside the reachable box,
  where its code could alias a reachable sum).  atom_nd, atom_1d and
  both atoms of reduction.verify_instance call it.

Nothing here is cached.  At most one full sum table is alive per chain
or call, and none is kept between multisets: a caller that reads one
multiset many times scales it once (reduction.Instance holds
scaled_vectors of its vectors) and holds its table (scaled_sums) for
as long as it needs it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapacityError, InputError
from .norms import RVector, vector

EXHAUSTIVE_LIMIT = 24
PROBE_LIMIT = 44


def _as_column(a: Sequence) -> list[tuple]:
    """Coefficients as 1-d vectors: the one column the 1-d queries view."""
    return [(q,) for q in a]


def _as_vectors(v: Sequence[Sequence]) -> list[RVector]:
    """Validated vectors: at least one, all of one nonzero dimension."""
    rows = [vector(row) for row in v]
    if not rows:
        raise InputError("empty vector list")
    d = len(rows[0])
    if d == 0 or any(len(row) != d for row in rows):
        raise InputError("vectors must share a fixed nonzero dimension")
    return rows


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


def _packed(vectors: Sequence[Sequence[int]]) -> tuple[
        tuple[int, ...], tuple[int, ...], int]:
    """(codes, reach, m) for integer vectors u_i: reach[j] = sum_i |u_ij|
    bounds coordinate j of every signed sum, and the code of an integer
    vector u is sum_j u_j * m^(d-1-j) with m = 2 * max(reach) + 1."""
    reach = tuple(sum(abs(c) for c in col) for col in zip(*vectors))
    m = 2 * max(reach) + 1
    codes = []
    for u in vectors:
        code = 0
        for c in u:
            code = code * m + c
        codes.append(code)
    return tuple(codes), reach, m


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


def _full_table(vectors: Sequence[Sequence[int]],
                what: str) -> tuple[dict[int, int], int]:
    """(packed table, m) of integer vectors, for the operations that
    read every sum or many keys."""
    if len(vectors) > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"{what} at most {EXHAUSTIVE_LIMIT} vectors, got {len(vectors)}")
    codes, _, m = _packed(vectors)
    return _int_table(codes), m


def sign_counter(values: tuple[int, ...]) -> Callable[[int], int]:
    """key -> #{eps : sum_i eps_i values_i = key}, for callers that ask
    many keys: one full table, built here, up to EXHAUSTIVE_LIMIT values."""
    table, _ = _full_table(_as_column(values), "sign counters support")
    return lambda key: table.get(key, 0)


def target_units(den: int, x: Sequence) -> tuple[tuple[int, ...], int]:
    """(u, q): the target x in the units of vectors scaled by den, an
    integer vector u over q >= 1 (the lcm of x's denominators) with
    u / q = den * x."""
    x = vector(x)
    q = math.lcm(*(c.denominator for c in x))
    return tuple(den * c.numerator * (q // c.denominator) for c in x), q


def probe_count(vectors: Sequence[Sequence[int]], u: Sequence[int],
                q: int) -> int:
    """#{eps : sum_i eps_i u_i = u / q} for integer vectors u_i and a
    target u / q in their units (as target_units gives it), counted from
    two half tables (meet in the middle), up to PROBE_LIMIT vectors."""
    n = len(vectors)
    if len(u) != len(vectors[0]):
        raise InputError(f"target has dimension {len(u)}, "
                         f"vectors have {len(vectors[0])}")
    if n > PROBE_LIMIT:
        raise CapacityError(
            f"atom probes support at most {PROBE_LIMIT} vectors, got {n}")
    codes, reach, m = _packed(vectors)
    key = 0
    for c, r in zip(u, reach):
        # Off the lattice, or outside the box on which packing is
        # injective: either way no sum hits u / q, and a packed u / q
        # could alias one.
        if c % q or abs(c) > q * r:
            return 0
        key = key * m + c // q
    left = _int_table(codes[:n // 2])
    right = _int_table(codes[n // 2:]).get
    return sum(c * right(key - s, 0) for s, c in left.items())


def atom_nd(v: Sequence[Sequence], x: Sequence) -> Fraction:
    """Exact P(sum_i eps_i v_i = x) over uniform independent signs eps_i,
    by probe_count on the scaled vectors."""
    den, vectors = scaled_vectors(v)
    return Fraction(probe_count(vectors, *target_units(den, x)),
                    2 ** len(vectors))


def atom_1d(a: Sequence, t) -> Fraction:
    """Exact P(sum_i eps_i a_i = t): atom_nd on one column."""
    return atom_nd(_as_column(a), (t,))


def sum_table_1d(a: Sequence) -> dict[Fraction, int]:
    """Full distribution of sum_i eps_i a_i: sum value -> pattern count.

    Counts total 2^n across the table."""
    den, vectors = scaled_vectors(_as_column(a))
    table, _ = _full_table(vectors, "full sum tables support")
    return {Fraction(s, den): c for s, c in table.items()}


def sum_table_nd(v: Sequence[Sequence]) -> dict[RVector, int]:
    """Full distribution of sum_i eps_i v_i: sum vector -> pattern count."""
    den, vectors = scaled_vectors(v)
    table, m = _full_table(vectors, "full sum tables support")
    d = len(vectors[0])
    return {_unpack(key, m, d, den): c for key, c in table.items()}


def scaled_vectors(v: Sequence[Sequence]) -> tuple[
        int, tuple[tuple[int, ...], ...]]:
    """(den, vectors): den is the lcm of the coordinate denominators and
    vectors are the v_i times den, the integer vectors of scaled_sums."""
    rows = _as_vectors(v)
    den = math.lcm(*(q.denominator for row in rows for q in row))
    return den, tuple(tuple(q.numerator * (den // q.denominator) for q in row)
                      for row in rows)


def scaled_sums(vectors: Sequence[Sequence[int]]) -> list[
        tuple[tuple[int, ...], int]]:
    """The distribution of sum_i eps_i u_i for integer vectors u_i, such
    as those of scaled_vectors (taken as they are, not rescaled): every
    attainable sum with its pattern count, sorted lexicographically."""
    table, m = _full_table(vectors, "full sum tables support")
    d = len(vectors[0])
    # Code order is the lexicographic order of the sums.
    return [(_digits(key, m, d), table[key]) for key in sorted(table)]


def reachable_sums_nd(v: Sequence[Sequence]) -> list[RVector]:
    """All attainable values of sum_i eps_i v_i, sorted lexicographically."""
    den, vectors = scaled_vectors(v)
    return [tuple(Fraction(s, den) for s in u)
            for u, _ in scaled_sums(vectors)]


def max_atom(v: Sequence[Sequence]) -> tuple[RVector, Fraction]:
    """Most probable sum target with its exact probability.

    Ties break to the lexicographically smallest target, so results are
    reproducible across runs and platforms.
    """
    den, vectors = scaled_vectors(v)
    table, m = _full_table(
        vectors, "max_atom enumerates the full table and supports")
    best_key = None
    best_count = -1
    # Code order is lexicographic order of the sums, so comparing codes
    # picks the same target as comparing the rational sums.
    for key, count in table.items():
        if count > best_count or (count == best_count and key < best_key):
            best_key = key
            best_count = count
    return (_unpack(best_key, m, len(vectors[0]), den),
            Fraction(best_count, 2 ** len(vectors)))


def rho_max_1d(a: Sequence) -> Fraction:
    """Largest atom probability max_t P(sum_i eps_i a_i = t): max_atom
    on one column."""
    return max_atom(_as_column(a))[1]

"""Norm evaluation, exact ceilings, closed-form duals, and dual-optimal
witnesses.

Four exact families are supported: l1, l2, linf, and facet-form
polyhedral norms max_j |<f_j, x>| (the functionals must span the space,
otherwise the form is a seminorm and is rejected).  l2 magnitudes are
carried as exact squares, so every ordering and ceiling decision on
them reduces to integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError, UnsupportedNormOperation
from .exactnum import ceil_sqrt, format_rational, parse_rational

RVector = tuple[Fraction, ...]

L1 = "l1"
L2 = "l2"
LINF = "linf"
POLY = "poly"

# NormValue kinds.
RATIONAL = "rational"
SQUARED = "squared"

_CLOSED_DUAL_KINDS = (L1, L2, LINF)
_DUAL_KIND = {L1: LINF, L2: L2, LINF: L1}


def vector(coords: Iterable) -> RVector:
    """Build an RVector (tuple of Fractions) from an iterable of rationals."""
    v = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
    if not v:
        raise InputError("empty vector")
    return v


def dot(x: Sequence, y: Sequence):
    """<x, y>: a Fraction for rational vectors, an int for integer ones."""
    if len(x) != len(y):
        raise InputError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(map(mul, x, y))


def is_zero(x: RVector) -> bool:
    return all(c == 0 for c in x)


def _sign(q: Fraction) -> int:
    # sign(0) = +1 so sign vectors stay in the dual ball of l1
    return -1 if q < 0 else 1


def _rank(rows: Sequence[RVector]) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    m = [list(r) for r in rows]
    cols = len(m[0]) if m else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                f = m[r][col] / lead
                for c in range(col, cols):
                    m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == len(m):
            break
    return rank


@dataclass(frozen=True)
class NormSpec:
    """Tagged description of a norm on rational vectors.

    kind is "l1", "l2", "linf", or "poly" (facet form max_j |<f_j, x>|,
    fixed dimension).
    """

    kind: str
    functionals: tuple[RVector, ...] = ()
    # The functionals as integer rows over one common denominator,
    # (den, rows), so that evaluating them on integer vectors stays in
    # integer arithmetic.
    integer_functionals: tuple = field(default=(), init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        if self.kind not in (L1, L2, LINF, POLY):
            raise InputError(f"unknown norm kind {self.kind!r}")
        if self.kind == POLY:
            if not self.functionals:
                raise InputError("polyhedral norm needs at least one functional")
            d = len(self.functionals[0])
            if d == 0 or any(len(f) != d for f in self.functionals):
                raise InputError("functionals must share a fixed nonzero dimension")
            if _rank(self.functionals) < d:
                raise InputError(
                    "functionals do not span the space (a seminorm, not a norm)")
            den = math.lcm(*(c.denominator
                             for f in self.functionals for c in f))
            rows = tuple(tuple(c.numerator * (den // c.denominator) for c in f)
                         for f in self.functionals)
            object.__setattr__(self, "integer_functionals", (den, rows))
        elif self.functionals:
            raise InputError(f"{self.kind} norm takes no functionals")

    @classmethod
    def l1(cls) -> "NormSpec":
        return cls(L1)

    @classmethod
    def l2(cls) -> "NormSpec":
        return cls(L2)

    @classmethod
    def linf(cls) -> "NormSpec":
        return cls(LINF)

    @classmethod
    def polyhedral(cls, functionals: Iterable[Iterable]) -> "NormSpec":
        return cls(POLY, tuple(vector(f) for f in functionals))

    @property
    def dimension(self) -> int | None:
        """Fixed dimension for polyhedral specs, None otherwise."""
        return len(self.functionals[0]) if self.kind == POLY else None


@dataclass(frozen=True)
class NormValue:
    """Exact magnitude descriptor.

    kind "rational" stores the magnitude itself; kind "squared" stores
    its exact square (l2 magnitudes are generally irrational).
    """

    kind: str
    value: Fraction

    @classmethod
    def rational(cls, q) -> "NormValue":
        q = Fraction(q)
        if q < 0:
            raise InputError("a magnitude cannot be negative")
        return cls(RATIONAL, q)

    @classmethod
    def squared(cls, q2) -> "NormValue":
        q2 = Fraction(q2)
        if q2 < 0:
            raise InputError("a squared magnitude cannot be negative")
        return cls(SQUARED, q2)

    def ceil(self) -> int:
        """Exact ceiling of the magnitude."""
        if self.kind == RATIONAL:
            return math.ceil(self.value)
        return ceil_sqrt(self.value)

    def le_rational(self, q) -> bool:
        """Exact test: magnitude <= q."""
        q = Fraction(q)
        if self.kind == RATIONAL:
            return self.value <= q
        return q >= 0 and self.value <= q * q

    def is_zero(self) -> bool:
        return self.value == 0

    def equals(self, other: "NormValue") -> bool:
        """Exact equality of magnitudes across both kinds."""
        if self.kind == other.kind:
            return self.value == other.value
        plain, squared = (self, other) if self.kind == RATIONAL else (other, self)
        return plain.value * plain.value == squared.value


@dataclass(frozen=True)
class Witness:
    """Unnormalized dual-optimal direction w with its exact scale s.

    The witness proper is y = w / s; keeping the scale symbolic lets l2
    carry s = sqrt(<x, x>) exactly.  Invariants: <x, w> = ||x|| * s and
    ||w / s||_* <= 1, both checkable without leaving rational arithmetic.
    """

    direction: RVector
    scale: NormValue


def norm_eval(spec: NormSpec, x: RVector) -> NormValue:
    """Evaluate ||x|| as an exact magnitude descriptor."""
    if not x:
        raise InputError("empty vector")
    if spec.kind == POLY and len(x) != spec.dimension:
        raise InputError(
            f"dimension mismatch: norm is on {spec.dimension} coordinates, "
            f"vector has {len(x)}")
    if spec.kind == L1:
        return NormValue.rational(sum(abs(c) for c in x))
    if spec.kind == L2:
        return NormValue.squared(dot(x, x))
    if spec.kind == LINF:
        return NormValue.rational(max(abs(c) for c in x))
    den, rows = spec.integer_functionals
    return NormValue.rational(Fraction(max(abs(dot(f, x)) for f in rows), den))


def ceil_norm(spec: NormSpec, x: RVector) -> int:
    """Exact ceil(||x||); zero iff x = 0."""
    return norm_eval(spec, x).ceil()


def ceil_norm_over(spec: NormSpec, u: Sequence[int], den: int) -> int:
    """ceil(||u|| / den) for an integer vector u and den > 0, in integers
    (poly reads integer_functionals, l2 takes ceil_sqrt(<u, u>))."""
    if spec.kind == L2:
        return -(-ceil_sqrt(dot(u, u)) // den)
    if spec.kind == POLY:
        fden, rows = spec.integer_functionals
        return -(-max(abs(dot(f, u)) for f in rows) // (den * fden))
    m = sum(map(abs, u)) if spec.kind == L1 else max(map(abs, u))
    return -(-m // den)


def dual_spec(spec: NormSpec) -> NormSpec:
    """The dual norm's spec where a closed form exists:
    l1 <-> linf, l2 self-dual."""
    if spec.kind in _DUAL_KIND:
        return NormSpec(_DUAL_KIND[spec.kind])
    raise UnsupportedNormOperation(
        "the dual of a facet-form polyhedral norm has no closed form here")


def dual_eval(spec: NormSpec, u: RVector) -> NormValue:
    """Evaluate the dual norm ||u||_* where a closed form exists."""
    return norm_eval(dual_spec(spec), u)


def witness_target(x: Sequence) -> tuple:
    """The vector whose witness projects an instance with target x: x
    itself, or e_1 when x = 0 (then k = 0 and any direction serves)."""
    if is_zero(x):
        return (1,) + (0,) * (len(x) - 1)
    return tuple(x)


def witness_direction(spec: NormSpec, x: Sequence) -> tuple:
    """Unnormalized dual-optimal direction for x != 0: the one rule that
    picks every witness.

    l2 takes x itself; l1 the sign vector of x; linf the signed
    coordinate vector at the smallest index of maximal |x_j|; poly the
    signed functional at the smallest index of maximal |<f_j, x>|;
    sign(0) = +1 throughout.  Only signs and comparisons of x enter, so
    for l1, linf and poly the direction is unchanged when x is scaled by
    a positive factor, and x may hold integers as well as rationals.
    """
    if spec.kind == L2:
        return tuple(x)
    if spec.kind == L1:
        return tuple(_sign(c) for c in x)
    if spec.kind == LINF:
        best = max(range(len(x)), key=lambda i: abs(x[i]))  # first maximum
        return tuple(_sign(x[best]) * (i == best) for i in range(len(x)))
    w, den = integer_witness(spec, x)
    return tuple(Fraction(c, den) for c in w)


def integer_witness(spec: NormSpec, u: Sequence[int]) -> tuple:
    """(w, lam): the integer vector w = lam * witness_direction(spec, u)
    for u != 0, with lam = 1, or for poly the functionals' common
    denominator (w is then a signed row of integer_functionals)."""
    if spec.kind != POLY:
        return witness_direction(spec, u), 1
    den, rows = spec.integer_functionals
    vals = [dot(f, u) for f in rows]
    best = max(range(len(vals)), key=lambda j: abs(vals[j]))  # first maximum
    return tuple(_sign(vals[best]) * c for c in rows[best]), den


def dual_witness(spec: NormSpec, x: RVector) -> Witness:
    """Dual-optimal witness for x != 0.

    Dual-ball membership of y = w / s is structural per variant: l2
    normalizes x by its own length; the l1 witness is a sign vector
    (sup-norm 1); the linf witness is a signed coordinate vector (1-norm
    1); the polyhedral witness is a signed defining functional, which
    lies in the dual ball because the norm dominates |<f_j, .>| by
    definition.  The direction comes from witness_direction.
    """
    if spec.kind == POLY and len(x) != spec.dimension:
        raise InputError(
            f"dimension mismatch: norm is on {spec.dimension} coordinates, "
            f"vector has {len(x)}")
    if is_zero(x):
        raise InputError("dual witness undefined for x = 0")
    direction = vector(witness_direction(spec, x))
    if spec.kind == L2:
        return Witness(direction, NormValue.squared(dot(direction, direction)))
    return Witness(direction, NormValue.rational(1))


def holder_check(spec: NormSpec, x: RVector, u: RVector) -> bool:
    """Exact executable check of |<x, u>| <= ||x|| ||u||_*.

    Supported where the dual has an exact closed form (l1, l2, linf).
    The l2 case compares squares, avoiding square roots.
    """
    if spec.kind not in _CLOSED_DUAL_KINDS:
        raise UnsupportedNormOperation("holder_check needs a closed-form dual")
    inner = dot(x, u)
    if spec.kind == L2:
        return inner * inner <= dot(x, x) * dot(u, u)
    nx = norm_eval(spec, x).value
    nu = dual_eval(spec, u).value
    return abs(inner) <= nx * nu


def double_dual_check(spec: NormSpec, x: RVector) -> bool:
    """Exact check that the dual of the dual reproduces ||x||."""
    if spec.kind not in _CLOSED_DUAL_KINDS:
        raise UnsupportedNormOperation("double_dual_check needs a closed-form dual")
    return norm_eval(spec, x).equals(dual_eval(dual_spec(spec), x))


def format_norm(spec: NormSpec) -> str:
    if spec.kind in (L1, L2, LINF):
        return spec.kind
    body = ";".join(
        ",".join(format_rational(c) for c in f) for f in spec.functionals)
    return f"poly:[{body}]"


def parse_norm(text: str) -> NormSpec:
    """Parse "l1" | "l2" | "linf" | "poly:[f1;f2;...]" where
    each functional is a comma-separated list of rationals."""
    s = text.strip()
    if s in (L1, L2, LINF):
        return NormSpec(s)
    if s.startswith("poly:"):
        body = s[5:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise InputError(f"malformed polyhedral norm: {text!r}")
        rows = body[1:-1].split(";")
        if not body[1:-1].strip():
            raise InputError(f"polyhedral norm needs functionals: {text!r}")
        if not all(row.strip() for row in rows):
            raise InputError(f"empty functional in polyhedral norm: {text!r}")
        return NormSpec.polyhedral(
            [parse_rational(c) for c in row.split(",")] for row in rows)
    raise InputError(f"unknown norm spec: {text!r}")

"""The dual-witness projection chain.

A verified instance walks the chain

    P(sum_i eps_i v_i = x)  <=  P(sum_i eps_i <v_i, y> = <x, y>)
                            <=  lo_bound(n, ceil ||x||)

where y is the dual-optimal witness of the target x: projecting along y
maps the equality event into one dimension without losing probability,
and the projected coefficients <v_i, y> stay in [-1, 1], which is what
the one-dimensional bound needs.

A Chain runs it on a vector multiset scaled to integers once, with one
Projection per witness direction.  The atom event is invariant under
scaling both sides by s > 0, so nothing is normalized and every
equality, sign, and ceiling is decided exactly (the l2 scale is kept as
an exact square).  verify_instance is a chain with one target.

When some <v_i, w> is zero the witness is nudged off the offending
hyperplanes by a deterministic perturbation schedule; the perturbed
witness must pass the same certificate, otherwise the search continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# perfbench/tracer.py wraps reduction.atom_1d, so the name stays here.
from .concentration import (atom_1d, atom_nd, scaled_vectors,  # noqa: F401
                            sign_counter)
from .errors import CertificateError, InputError, PerturbationError
from .exactnum import (ceil_sqrt, delta, floor_sqrt, format_rational,
                       lo_bound, lo_count, parse_int, parse_rational)
from .norms import (POLY, RATIONAL, NormSpec, NormValue, RVector,
                    Witness, ceil_norm, dot, dual_witness, format_norm,
                    is_zero, norm_eval, parse_norm, vector, witness_direction,
                    witness_scale, witness_target)

# Perturbation schedule: eta = 2^-3, 2^-6, ..., 2^-30, coarse to fine.
ETA_EXPONENTS = tuple(range(3, 31, 3))


@lru_cache(maxsize=65536)
def in_unit_ball(norm: NormSpec, v: RVector) -> bool:
    """Exact membership test ||v|| <= 1."""
    return norm_eval(norm, v).le_rational(1)


@dataclass(frozen=True)
class Instance:
    """A verification instance: nonzero unit-ball vectors, target, norm.

    Construction checks the hypotheses (a zero v_i or a vector outside
    the unit ball would void the bound, so both are rejected up front).
    """

    vectors: tuple[RVector, ...]
    target: RVector
    norm: NormSpec

    def __post_init__(self):
        if not self.vectors:
            raise InputError("instance needs at least one vector")
        d = len(self.target)
        if d == 0:
            raise InputError("empty target")
        if self.norm.kind == POLY and self.norm.dimension != d:
            raise InputError(
                f"norm is on {self.norm.dimension} coordinates, "
                f"instance has {d}")
        for i, v in enumerate(self.vectors):
            if len(v) != d:
                raise InputError(
                    f"vector {i} has dimension {len(v)}, target has {d}")
            if is_zero(v):
                raise InputError(f"vector {i} is zero")
            if not in_unit_ball(self.norm, v):
                raise InputError(f"vector {i} lies outside the unit ball")

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.target)


def make_instance(vectors, target, norm: NormSpec) -> Instance:
    """Coerce nested rationals into an Instance."""
    return Instance(tuple(vector(v) for v in vectors), vector(target), norm)


@dataclass(frozen=True)
class ProjectedInstance:
    """One-dimensional image of an instance along its (possibly
    perturbed) witness direction w.

    coefficients and target_value are the unscaled <v_i, w> and <x, w>;
    dividing by the scale recovers the y = w/s quantities, but the atom
    event is scale-invariant, so they feed atom_1d as they are.
    """

    coefficients: tuple[Fraction, ...]
    target_value: Fraction
    scale: NormValue
    k: int
    perturbed: bool = False


@dataclass(frozen=True)
class VerificationReport:
    p_exact: Fraction
    p_projected: Fraction
    bound: Fraction
    k: int
    delta: int
    chain_holds: bool
    tight: bool
    perturbed: bool


ZERO_COEFFICIENT = "projection produced a zero coefficient"


def within_scale(c: Fraction | int, scale: NormValue) -> bool:
    """Exact |c| <= s for a rational or square-root scale s."""
    if scale.kind == RATIONAL:
        return abs(c) <= scale.value
    return c * c <= scale.value


def ceil_over_scale(t: Fraction | int, scale: NormValue) -> int:
    """Exact ceil(t / s) for s > 0 rational or the square root of a
    rational; square-root scales are resolved by squaring the correct
    side of each comparison."""
    if scale.kind == RATIONAL:
        return -(-t // scale.value)
    if t > 0:
        return ceil_sqrt(t * t / scale.value)
    if t == 0:
        return 0
    return -floor_sqrt(t * t / scale.value)


def certificate_failure(scale: NormValue, coefficients=(),
                        target_value=None, k: int = 0) -> str | None:
    """The first hypothesis of the chain that a projection at scale s
    breaks, or None: every coefficient c is nonzero, |c| <= s, and, when
    the projected target t is given, ceil(t / s) = k."""
    if not all(coefficients):
        return ZERO_COEFFICIENT
    if not all(within_scale(c, scale) for c in coefficients):
        return "projected coefficient left the unit interval"
    if target_value is not None and ceil_over_scale(target_value, scale) != k:
        return "projection changed the target's norm ceiling"
    return None


def perturb_witness(instance: Instance, w: Witness) -> Witness:
    """Nudge w off the hyperplanes <v_i, .> = 0 while preserving the
    chain's hypotheses.

    Deterministic schedule: for eta in 2^-3, 2^-6, ..., 2^-30 and
    candidate direction z in +e_1, -e_1, ..., +e_d, -e_d, v_1, ..., v_n
    (in that order), the first w' = (1 - eta) w + eta z that passes
    certificate_failure at the scale s of w wins.

    Only when that schedule is exhausted does a second pass run the same
    eta sequence over +z(t), -z(t) for t = 1, ..., n(d-1)+1, with
    z(t) = (1, t, ..., t^(d-1)).  From d = 3 on, w can lie on two
    independent hyperplanes that no single direction of the first pass
    leaves at once.  For v != 0, <v, z(t)> is a nonzero
    polynomial in t of degree below d, so some t in that range keeps
    every <v_i, z(t)> nonzero.
    """
    d = instance.dimension
    x = instance.target
    k = ceil_norm(instance.norm, x)
    dirs: list[RVector] = []
    for j in range(d):
        plus = [Fraction(0)] * d
        plus[j] = Fraction(1)
        dirs.append(tuple(plus))
        minus = [Fraction(0)] * d
        minus[j] = Fraction(-1)
        dirs.append(tuple(minus))
    dirs.extend(instance.vectors)
    curve: list[RVector] = []
    for t in range(1, instance.n * (d - 1) + 2):
        z = tuple(Fraction(t ** j) for j in range(d))
        curve.append(z)
        curve.append(tuple(-c for c in z))
    tried = 0
    for schedule in (dirs, curve):
        for exp in ETA_EXPONENTS:
            eta = Fraction(1, 2 ** exp)
            keep = 1 - eta
            for z in schedule:
                tried += 1
                cand = tuple(keep * wc + eta * zc
                             for wc, zc in zip(w.direction, z))
                coeffs = [dot(v, cand) for v in instance.vectors]
                if certificate_failure(w.scale, coeffs, dot(x, cand),
                                       k) is None:
                    return Witness(cand, w.scale)
    raise PerturbationError(
        f"no acceptable witness perturbation among {tried} candidates "
        f"(eta floor 2^-{ETA_EXPONENTS[-1]}, n={instance.n}, d={d}, "
        f"norm={format_norm(instance.norm)})")


def _primitive(direction: tuple) -> tuple[tuple[int, ...], Fraction]:
    """The primitive integer vector w along a nonzero rational direction,
    and the factor r > 0 with w = r * direction."""
    lcm = math.lcm(*(c.denominator for c in direction))
    ints = [c.numerator * (lcm // c.denominator) for c in direction]
    g = math.gcd(*ints)
    return tuple(c // g for c in ints), Fraction(lcm, g)


class Projection:
    """The image along the witness w / scale (w primitive, both in chain
    units): the coefficients <v_i, w>, their certificate failure, and
    count(t), the sign patterns whose projected sum is t."""

    def __init__(self, vectors: tuple[tuple[int, ...], ...],
                 w: tuple[int, ...], scale: NormValue):
        self.w = w
        self.scale = scale
        self.coefficients = tuple(dot(v, w) for v in vectors)
        self.failure = certificate_failure(scale, self.coefficients)
        self.count = None if self.failure else sign_counter(self.coefficients)


class Chain:
    """The chain for one vector multiset under one norm, validated once:
    scaled holds the vectors times den, the lcm of their denominators,
    and scaled targets u are in the same units (those of scaled_sums)."""

    def __init__(self, vectors: tuple[RVector, ...], norm: NormSpec):
        Instance(vectors, (Fraction(0),) * len(vectors[0]), norm)
        self.vectors = vectors
        self.norm = norm
        self.den, self.scaled = scaled_vectors(vectors)
        self._projections: dict = {}

    def _along(self, direction, base=None) -> Projection:
        """The cached projection along direction, at base's witness scale."""
        w, r = _primitive(direction)
        key = (w, witness_scale(self.norm, base or direction, self.den * r))
        proj = self._projections.get(key)
        if proj is None:
            proj = self._projections[key] = Projection(self.scaled, *key)
        return proj

    def _locate(self, u, x: RVector | None = None):
        """(projection, <u, w>, k, perturbed witness or None) for the
        scaled target u; x = u / den."""
        direction = witness_direction(self.norm, witness_target(u))
        # Also cached by direction, so that a hit costs no primitive.
        proj = self._projections.get(direction)
        if proj is None:
            proj = self._projections[direction] = self._along(direction)
        perturbed = None
        if proj.failure == ZERO_COEFFICIENT:
            x = tuple(Fraction(c, self.den) for c in u) if x is None else x
            base = dual_witness(self.norm, vector(witness_target(x)))
            perturbed = perturb_witness(Instance(self.vectors, x, self.norm),
                                        base)
            proj = self._along(perturbed.direction, base.direction)
        t = dot(u, proj.w)
        k = norm_eval(self.norm, u).ceil(self.den)
        failure = proj.failure or certificate_failure(proj.scale, (), t, k)
        if failure is not None:
            raise CertificateError(failure)
        return proj, t, k, perturbed

    def locate(self, x: RVector):
        """_locate for the target x in the vectors' own units."""
        u = (c * self.den for c in x)  # integers where x is on the lattice
        return self._locate(tuple(int(c) if c % 1 == 0 else c for c in u), x)

    def counts(self, u) -> tuple[int, int]:
        """(projected, allowed) sign-pattern counts for the target u."""
        proj, t, k, _ = self._locate(u)
        return proj.count(t), lo_count(len(self.vectors), k)


def project(instance: Instance) -> ProjectedInstance:
    """The chain's projection as exact rationals along the instance's
    witness: the dual witness of the target (of e_1 when x = 0, where
    k = 0 and any direction works), or its perturbation."""
    chain = Chain(instance.vectors, instance.norm)
    proj, t, k, perturbed = chain.locate(instance.target)
    w = perturbed or dual_witness(instance.norm,
                                  vector(witness_target(instance.target)))
    # The chain's w is the primitive multiple of w.direction.
    unit = chain.den * _primitive(w.direction)[1]
    return ProjectedInstance(tuple(c / unit for c in proj.coefficients),
                             t / unit, w.scale, k, perturbed is not None)


def verify_instance(instance: Instance) -> VerificationReport:
    """Run the full chain p_exact <= p_projected <= bound, all exact."""
    chain = Chain(instance.vectors, instance.norm)
    proj, t, k, perturbed = chain.locate(instance.target)
    p_exact = atom_nd(instance.vectors, instance.target)
    p_projected = Fraction(proj.count(t), 2 ** instance.n)
    bound = lo_bound(instance.n, k)
    return VerificationReport(
        p_exact=p_exact,
        p_projected=p_projected,
        bound=bound,
        k=k,
        delta=delta(instance.n, k),
        chain_holds=p_exact <= p_projected <= bound,
        tight=p_exact == bound,
        perturbed=perturbed is not None,
    )


# ----------------------------------------------------------------------
# Text formats.  Instance files and reports are line-oriented
# "key = value" text; blank lines and lines starting with '#' are
# ignored on input.

INSTANCE_HEADER = "# lo-instance v1"
REPORT_HEADER = "# lo-report v1"


def format_bool(b: bool) -> str:
    return "true" if b else "false"


def parse_keyvals(text: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise InputError(f"{what}: line {lineno}: expected 'key = value'")
        key = key.strip()
        if key in out:
            raise InputError(f"{what}: line {lineno}: duplicate key {key!r}")
        out[key] = val.strip()
    return out


def format_vector(x: RVector) -> str:
    return ",".join(format_rational(c) for c in x)


def parse_vector(text: str) -> RVector:
    return vector(parse_rational(c) for c in text.split(","))


def instance_lines(instance: Instance) -> list[str]:
    return [
        f"dimension = {instance.dimension}",
        f"norm = {format_norm(instance.norm)}",
        "vectors = " + "; ".join(format_vector(v) for v in instance.vectors),
        f"target = {format_vector(instance.target)}",
    ]


def format_instance(instance: Instance) -> str:
    return "\n".join([INSTANCE_HEADER] + instance_lines(instance)) + "\n"


def parse_instance(text: str) -> Instance:
    fields = parse_keyvals(text, "instance file")
    missing = {"dimension", "norm", "vectors", "target"} - fields.keys()
    if missing:
        raise InputError(f"instance file: missing {', '.join(sorted(missing))}")
    try:
        d = parse_int(fields["dimension"])
    except InputError:
        raise InputError(
            f"instance file: bad dimension {fields['dimension']!r}") from None
    norm = parse_norm(fields["norm"])
    vectors = tuple(parse_vector(part)
                    for part in fields["vectors"].split(";") if part.strip())
    if not vectors:
        raise InputError("instance file: empty vector list")
    target = parse_vector(fields["target"])
    if len(target) != d or any(len(v) != d for v in vectors):
        raise InputError("instance file: dimension field disagrees with the data")
    return Instance(vectors, target, norm)


def report_lines(report: VerificationReport, n: int | None = None) -> list[str]:
    lines = []
    if n is not None:
        lines.append(f"n = {n}")
    lines += [
        f"k = {report.k}",
        f"delta = {report.delta}",
        f"p_exact = {format_rational(report.p_exact)}",
        f"p_projected = {format_rational(report.p_projected)}",
        f"bound = {format_rational(report.bound)}",
        f"chain_holds = {format_bool(report.chain_holds)}",
        f"tight = {format_bool(report.tight)}",
        f"perturbed = {format_bool(report.perturbed)}",
    ]
    return lines


def format_report(report: VerificationReport, instance: Instance | None = None) -> str:
    lines = [REPORT_HEADER]
    if instance is not None:
        lines += instance_lines(instance)
        lines += report_lines(report, n=instance.n)
    else:
        lines += report_lines(report)
    return "\n".join(lines) + "\n"

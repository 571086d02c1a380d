"""The dual-witness projection pipeline.

A verified instance walks the chain

    P(sum_i eps_i v_i = x)  <=  P(sum_i eps_i <v_i, y> = <x, y>)
                            <=  lo_bound(n, ceil ||x||)

where y is the dual-optimal witness of the target x: projecting along y
maps the equality event into one dimension without losing probability,
and the projected coefficients <v_i, y> stay in [-1, 1], which is what
the one-dimensional bound needs.

Projection arithmetic never normalizes the witness.  Coefficients
<v_i, w> and target <x, w> are plain rationals and the scale s rides
along symbolically (for l2 it is a square root carried as an exact
square), so every equality, sign, and ceiling below is decided exactly:
the atom event is invariant under scaling both sides by s > 0.

When some <v_i, w> is zero the witness is nudged off the offending
hyperplanes by a deterministic perturbation schedule; the perturbed
witness must still satisfy the chain's hypotheses exactly, otherwise
the search continues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .concentration import atom_1d, atom_nd
from .errors import CertificateError, InputError, PerturbationError
from .exactnum import (ceil_sqrt, delta, floor_sqrt, format_rational, lo_bound,
                       parse_rational)
from .norms import (POLY, RATIONAL, NormSpec, NormValue, RVector,
                    Witness, ceil_norm, dot, dual_witness, format_norm,
                    is_zero, norm_eval, parse_norm, vector, witness_target)

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


# Certificate failures shared by project() and the batched sweep in
# campaign, so that both record the same message.
LEFT_UNIT_INTERVAL = "projected coefficient left the unit interval"
CHANGED_CEILING = "projection changed the target's norm ceiling"


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


def perturb_witness(instance: Instance, w: Witness) -> Witness:
    """Nudge w off the hyperplanes <v_i, .> = 0 while preserving the
    chain's hypotheses.

    Deterministic schedule: for eta in 2^-3, 2^-6, ..., 2^-30 and
    candidate direction z in +e_1, -e_1, ..., +e_d, -e_d, v_1, ..., v_n
    (in that order), the first w' = (1 - eta) w + eta z passing all
    three exact checks wins:

      (a) <v_i, w'> != 0 for every i;
      (b) |<v_i, w'>| <= s, so the projected coefficients stay in [-1, 1];
      (c) ceil(<x, w'> / s) equals ceil ||x||, so the bound's k survives.

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
                if any(c == 0 for c in coeffs):
                    continue
                if not all(within_scale(c, w.scale) for c in coeffs):
                    continue
                if ceil_over_scale(dot(x, cand), w.scale) != k:
                    continue
                return Witness(cand, w.scale)
    raise PerturbationError(
        f"no acceptable witness perturbation among {tried} candidates "
        f"(eta floor 2^-{ETA_EXPONENTS[-1]}, n={instance.n}, d={d}, "
        f"norm={format_norm(instance.norm)})")


def project(instance: Instance) -> ProjectedInstance:
    """Project the instance to one dimension along its dual witness.

    For x = 0 any direction works (k = 0 and the ceiling condition is
    vacuous); witness_target picks the first coordinate vector so the
    output stays deterministic.
    """
    x = instance.target
    w = dual_witness(instance.norm, vector(witness_target(x)))
    coeffs = tuple(dot(v, w.direction) for v in instance.vectors)
    perturbed = False
    if any(c == 0 for c in coeffs):
        w = perturb_witness(instance, w)
        coeffs = tuple(dot(v, w.direction) for v in instance.vectors)
        perturbed = True
    target_value = dot(x, w.direction)
    k = ceil_norm(instance.norm, x)
    # Certificate of the projection's hypotheses.  These cannot fail for
    # a correct witness; they guard the chain, not the input.
    if any(c == 0 for c in coeffs):
        raise CertificateError("projection produced a zero coefficient")
    if not all(within_scale(c, w.scale) for c in coeffs):
        raise CertificateError(LEFT_UNIT_INTERVAL)
    if ceil_over_scale(target_value, w.scale) != k:
        raise CertificateError(CHANGED_CEILING)
    return ProjectedInstance(coeffs, target_value, w.scale, k, perturbed)


def verify_instance(instance: Instance) -> VerificationReport:
    """Run the full chain p_exact <= p_projected <= bound, all exact."""
    proj = project(instance)
    p_exact = atom_nd(instance.vectors, instance.target)
    p_projected = atom_1d(proj.coefficients, proj.target_value)
    bound = lo_bound(instance.n, proj.k)
    return VerificationReport(
        p_exact=p_exact,
        p_projected=p_projected,
        bound=bound,
        k=proj.k,
        delta=delta(instance.n, proj.k),
        chain_holds=p_exact <= p_projected <= bound,
        tight=p_exact == bound,
        perturbed=proj.perturbed,
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
        d = int(fields["dimension"])
    except ValueError:
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

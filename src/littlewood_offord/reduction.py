"""The dual-witness projection chain.

A verified instance walks the chain

    P(sum_i eps_i v_i = x)  <=  P(sum_i eps_i <v_i, y> = <x, y>)
                            <=  lo_bound(n, ceil ||x||)

where y is the dual-optimal witness of the target x: projecting along y
maps the equality event into one dimension without losing probability,
and the projected coefficients <v_i, y> stay in [-1, 1], which is what
the one-dimensional bound needs.

An Instance enters integer units once: it keeps its vectors times den,
the lcm of their denominators, and checks the unit ball on those
integers.  A Chain runs the chain on them: a target as an
integer vector over one extra denominator q, and a witness as an
integer vector w with an integer scale s, y = den * w / s (for l2 the
chain holds s^2, an exact square).  The atom event is invariant under
scaling both sides by a positive factor, so k, every sign and every
certificate is an integer comparison, and one Projection per (w, s),
divided by their common gcd, serves every target along it.  When some
<v_i, w> is zero, a deterministic schedule on the same integers nudges
w off the offending hyperplanes.  verify_instance is a chain with one
target whose two atoms are concentration.probe_count calls, on the
scaled vectors and on the projected coefficients; project() and
perturb_witness are its exact rational views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

# perfbench/tracer.py wraps reduction.atom_nd and reduction.atom_1d, so
# both names stay here although nothing in this module calls them: their
# spans read 0 calls until the tracer wraps probe_count instead.
from .concentration import (atom_1d, atom_nd, probe_count,  # noqa: F401
                            sign_counter, target_units)
from .errors import CertificateError, InputError, PerturbationError
from .exactnum import (ceil_sqrt, delta, floor_sqrt, format_rational,
                       lo_bound, lo_count, parse_int, parse_rational)
from .norms import (L2, POLY, NormSpec, NormValue, RVector, Witness,
                    ceil_norm, ceil_norm_over, dot, dual_witness, format_norm,
                    integer_witness, is_zero, norm_eval, parse_norm, vector,
                    witness_target)

# Perturbation schedule: eta = 2^-3, 2^-6, ..., 2^-30, coarse to fine.
ETA_EXPONENTS = tuple(range(3, 31, 3))


def in_unit_ball(norm: NormSpec, v: RVector) -> bool:
    """Exact membership test ||v|| <= 1, in rationals."""
    return norm_eval(norm, v).le_rational(1)


@dataclass(frozen=True)
class Instance:
    """A verification instance: nonzero unit-ball vectors, target, norm.

    Construction checks the hypotheses (a zero v_i or a vector outside
    the unit ball would void the bound, so both are rejected up front),
    in integers: scaled holds the vectors times den, the lcm of their
    coordinate denominators (concentration.scaled_vectors), and a vector
    lies in the unit ball when ceil(||scaled_i|| / den) <= 1.
    """

    vectors: tuple[RVector, ...]
    target: RVector
    norm: NormSpec
    den: int = field(init=False, repr=False, compare=False)
    scaled: tuple = field(init=False, repr=False, compare=False)

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
        try:
            den = math.lcm(*(c.denominator for v in self.vectors for c in v))
        except AttributeError:
            raise InputError("vector coordinates must be exact rationals "
                             "(int or Fraction)") from None
        scaled = tuple(tuple(c.numerator * (den // c.denominator) for c in v)
                       for v in self.vectors)
        for i, u in enumerate(scaled):
            if len(u) != d:
                raise InputError(
                    f"vector {i} has dimension {len(u)}, target has {d}")
            if not any(u):
                raise InputError(f"vector {i} is zero")
            if ceil_norm_over(self.norm, u, den) > 1:
                raise InputError(f"vector {i} lies outside the unit ball")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "scaled", scaled)

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


def _times(s: int, f: int, squared: bool) -> int:
    """The scale s times f > 0 (s holds a square when squared)."""
    return s * f * f if squared else s * f


def within(c: int, s: int, squared: bool) -> bool:
    """|c| <= s, where a squared scale s stands for sqrt(s)."""
    return c * c <= s if squared else abs(c) <= s


def ceil_ratio(t: int, s: int, squared: bool) -> int:
    """ceil(t / s) for a scale s > 0 as in within, in integers: for a
    squared scale, ceil(t / sqrt(s)) = ceil(sqrt(t^2 s) / s)."""
    if not squared:
        return -(-t // s)
    if t < 0:
        return -(floor_sqrt(t * t * s) // s)
    return -(-ceil_sqrt(t * t * s) // s)


def certificate_failure(s: int, squared: bool, coefficients=(), t=None,
                        q: int = 1, k: int = 0) -> str | None:
    """The first hypothesis of the chain that a projection at scale s
    breaks, or None: every coefficient c is nonzero, |c| <= s, and, when
    the projected target t / q is given, ceil(t / (q s)) = k."""
    if not all(coefficients):
        return ZERO_COEFFICIENT
    if not all(within(c, s, squared) for c in coefficients):
        return "projected coefficient left the unit interval"
    if t is not None and ceil_ratio(t, _times(s, q, squared), squared) != k:
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

    When both passes are exhausted and x = 0, k = 0 at every scale and
    only the coefficients bind: w' is the first of +z(t), -z(t) for
    t = 1, 2, ... whose coefficients are all nonzero, times the largest
    2^-e (e >= 0) that puts every coefficient within the scale of w
    (compared in squares for l2).  The search runs on integers, in
    Chain.perturb.
    """
    chain = Chain(instance)
    u, q = chain.units(instance.target)
    scale = w.scale.value
    lam = math.lcm(scale.denominator, *(c.denominator for c in w.direction))
    ints = tuple(c.numerator * (lam // c.denominator) for c in w.direction)
    s = int(_times(scale, chain.den * lam, chain.squared))
    c, _, m = chain.perturb(ints, s, lam, u, q,
                            ceil_norm(instance.norm, instance.target))
    return Witness(tuple(Fraction(a, m) for a in c), w.scale)


class Projection:
    """The image along the integer witness w at scale s (chain units):
    the coefficients <v_i, w>, their certificate failure, and count(t),
    the sign patterns whose projected sum is t, built on first use."""

    def __init__(self, vectors: tuple[tuple[int, ...], ...],
                 w: tuple[int, ...], s: int, squared: bool):
        self.w = w
        self.s = s
        self.coefficients = tuple(dot(v, w) for v in vectors)
        self.failure = certificate_failure(s, squared, self.coefficients)

    @cached_property
    def count(self):
        """The sign counter of the coefficients, for many targets."""
        return sign_counter(self.coefficients)


class Chain:
    """The chain for the vector multiset and norm of a validated
    instance (its target is not read), on the instance's scaled vectors
    and den: a target is an integer vector u over q >= 1 in the same
    units (q = 1 for the sums of scaled_sums)."""

    def __init__(self, instance: Instance):
        self.norm = instance.norm
        self.squared = self.norm.kind == L2
        self.den, self.scaled = instance.den, instance.scaled
        self._projections: dict = {}

    def units(self, x: RVector) -> tuple[tuple[int, ...], int]:
        """(u, q): the target x in chain units, u / q = den * x."""
        return target_units(self.den, x)

    def _along(self, w: tuple[int, ...], s: int) -> Projection:
        """The cached projection along w at scale s, both divided by their
        common gcd (for l2, by the gcd of w if its square divides s)."""
        g = math.gcd(*w)
        if not self.squared:
            g = math.gcd(g, s)
        elif s % (g * g):
            g = 1
        key = (tuple(c // g for c in w), s // _times(1, g, self.squared))
        proj = self._projections.get(key)
        if proj is None:
            proj = self._projections[key] = Projection(
                self.scaled, *key, self.squared)
        return proj

    def locate(self, u: tuple[int, ...], q: int = 1):
        """(projection, t, k, perturbed) for the target u / q: the
        projected target is t / q, and perturbed is None or (c, m), the
        perturbed witness direction c / m in the vectors' own units."""
        # w = lam * D for the direction D of dual_witness; its scale is
        # den lam (dual unit vectors), or the square den^2 <w, w> for l2.
        w, lam = integer_witness(self.norm, witness_target(u))
        s = self.den ** 2 * dot(w, w) if self.squared else self.den * lam
        # Also cached by the witness itself, so that a hit costs no gcd.
        proj = self._projections.get(w)
        if proj is None:
            proj = self._projections[w] = self._along(w, s)
        k = ceil_norm_over(self.norm, u, q * self.den)
        perturbed = None
        if proj.failure == ZERO_COEFFICIENT:
            if self.squared and not is_zero(u):
                lam = q * self.den  # D = x = u / (q den)
            c, s, m = self.perturb(w, s, lam, u, q, k)
            proj, perturbed = self._along(c, s), (c, m)
        t = dot(u, proj.w)
        failure = proj.failure or certificate_failure(
            proj.s, self.squared, (), t, q, k)
        if failure is not None:
            raise CertificateError(failure)
        return proj, t, k, perturbed

    def perturb(self, w: tuple[int, ...], s: int, lam: int,
                u: tuple[int, ...], q: int, k: int):
        """perturb_witness's search for w = lam * D at scale s and the
        target u / q: (c, s', m) for the first candidate c that passes at
        its scale s', with c / m the w' that perturb_witness returns."""
        den, squared, vectors = self.den, self.squared, self.scaled
        # With lam a multiple of den, lam * z is integral for every z.
        f = den // math.gcd(den, lam)
        lam *= f
        base = tuple(f * a for a in w)
        s = _times(s, f, squared)
        d, n = len(w), len(vectors)
        dirs = [tuple(sign * (i == j) for i in range(d))
                for j in range(d) for sign in (lam, -lam)]
        dirs += [tuple(lam // den * a for a in v) for v in vectors]
        curve = [tuple(sign * t ** j for j in range(d))
                 for t in range(1, n * (d - 1) + 2) for sign in (lam, -lam)]
        for schedule in (dirs, curve):
            for e in ETA_EXPONENTS:
                # c = 2^e lam ((1 - eta) D + eta z), at scale 2^e s
                keep, se = (1 << e) - 1, _times(s, 1 << e, squared)
                for z in schedule:
                    c = tuple(keep * a + b for a, b in zip(base, z))
                    if certificate_failure(
                            se, squared, [dot(v, c) for v in vectors],
                            dot(u, c), q, k) is None:
                        return c, se, lam << e
        if not any(u):
            # x = 0 keeps k = 0 at every scale, so only the coefficients
            # bind: the first +-z(t) that clears every hyperplane serves,
            # halved until its coefficients lie within the scale.
            for z in curve:
                coefficients = [dot(v, z) for v in vectors]
                if all(coefficients):
                    while certificate_failure(s, squared, coefficients):
                        s, lam = _times(s, 2, squared), 2 * lam
                    return z, s, lam
        tried = len(ETA_EXPONENTS) * (len(dirs) + len(curve))
        raise PerturbationError(
            f"no acceptable witness perturbation among {tried} candidates "
            f"(eta floor 2^-{ETA_EXPONENTS[-1]}, n={n}, d={d}, "
            f"norm={format_norm(self.norm)})")

    def counts(self, u: tuple[int, ...]) -> tuple[int, int, bool]:
        """(projected, allowed) sign-pattern counts for the target u, and
        whether its witness was perturbed."""
        proj, t, k, perturbed = self.locate(u)
        return (proj.count(t), lo_count(len(self.scaled), k),
                perturbed is not None)


def project(instance: Instance) -> ProjectedInstance:
    """The chain's projection as exact rationals along the instance's
    witness: the dual witness of the target (of e_1 when x = 0, where
    k = 0 and any direction works), or its perturbation."""
    chain = Chain(instance)
    u, q = chain.units(instance.target)
    proj, t, k, perturbed = chain.locate(u, q)
    w = dual_witness(instance.norm, vector(witness_target(instance.target)))
    if perturbed is not None:
        c, m = perturbed
        w = Witness(tuple(Fraction(a, m) for a in c), w.scale)
    # The chain's w is a positive multiple of w.direction.
    j = next(j for j, a in enumerate(w.direction) if a)
    unit = chain.den * proj.w[j] / w.direction[j]
    return ProjectedInstance(tuple(c / unit for c in proj.coefficients),
                             t / (q * unit), w.scale, k,
                             perturbed is not None)


def verify_instance(instance: Instance) -> VerificationReport:
    """Run the full chain p_exact <= p_projected <= bound, all exact.
    Both atoms are single-target probes on half tables, in chain units:
    the scaled vectors at u / q, and the projected coefficients at t / q."""
    chain = Chain(instance)
    u, q = chain.units(instance.target)
    proj, t, k, perturbed = chain.locate(u, q)
    p_exact = Fraction(probe_count(chain.scaled, u, q), 2 ** instance.n)
    column = [(c,) for c in proj.coefficients]
    p_projected = Fraction(probe_count(column, (t,), q), 2 ** instance.n)
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
    parts = fields["vectors"].split(";")
    if not all(part.strip() for part in parts):
        raise InputError("instance file: empty entry in the vector list")
    vectors = tuple(parse_vector(part) for part in parts)
    target = parse_vector(fields["target"])
    if len(target) != d or any(len(v) != d for v in vectors):
        raise InputError("instance file: dimension field disagrees with the data")
    return Instance(vectors, target, norm)


def report_lines(report: VerificationReport, n: int) -> list[str]:
    return [
        f"n = {n}",
        f"k = {report.k}",
        f"delta = {report.delta}",
        f"p_exact = {format_rational(report.p_exact)}",
        f"p_projected = {format_rational(report.p_projected)}",
        f"bound = {format_rational(report.bound)}",
        f"chain_holds = {format_bool(report.chain_holds)}",
        f"tight = {format_bool(report.tight)}",
        f"perturbed = {format_bool(report.perturbed)}",
    ]


def format_report(report: VerificationReport, instance: Instance) -> str:
    lines = [REPORT_HEADER] + instance_lines(instance)
    lines += report_lines(report, instance.n)
    return "\n".join(lines) + "\n"

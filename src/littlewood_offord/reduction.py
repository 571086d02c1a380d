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
integers.  A Chain runs the chain on integer vectors over a den, an
instance's or a sweep grid's: a target as an integer vector over one
extra denominator q, and a witness as an
integer vector w with an integer scale s, y = den * w / s (for l2 the
chain holds s^2, an exact square).  The atom event is invariant under
scaling both sides by a positive factor, so k, every sign and every
certificate is an integer comparison, and a Chain builds one
Projection per (w, s) it is asked for, which serves every target that
asks for the same witness.  When some <v_i, w> is zero, a
deterministic schedule on the same integers, whose last pass cannot
fail, nudges w off the offending hyperplanes.  Chain.probe is a chain
at one target whose two atoms are concentration.probe_count calls, on
the scaled vectors and on the projected coefficients; verify_instance
is Chain.probe over 2^n, and project() and perturb_witness are its
exact rational views.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import NamedTuple

# perfbench/tracer.py wraps reduction.atom_nd and reduction.atom_1d, so
# both names stay here although nothing in this module calls them: their
# spans read 0 calls until the tracer wraps probe_count instead.
from .concentration import (atom_1d, atom_nd, probe_count,  # noqa: F401
                            sign_counter, target_units)
from .errors import CertificateError, InputError
from .exactnum import (ceil_sqrt, delta, floor_sqrt, format_rational,
                       lo_bound, lo_count, parse_int, parse_rational)
from .norms import (L2, POLY, Frozen, NormSpec, NormValue, RVector, Witness,
                    ceil_norm, ceil_norm_over, dot, dual_witness, format_norm,
                    integer_witness, is_zero, norm_eval, parse_norm, vector,
                    witness_target)

# Perturbation schedule: eta = 2^-3, 2^-6, ..., 2^-30, coarse to fine.
ETA_EXPONENTS = tuple(range(3, 31, 3))


def in_unit_ball(norm: NormSpec, v: RVector) -> bool:
    """Exact membership test ||v|| <= 1, in rationals."""
    return norm_eval(norm, v).le_rational(1)


def check_vectors(norm: NormSpec, den: int,
                  scaled: tuple[tuple[int, ...], ...], d: int) -> None:
    """Reject the vectors u_i / den (a zero one or one outside the unit
    ball would void the bound), in integers: each integer vector u_i
    needs dimension d, a nonzero entry and ceil(||u_i|| / den) <= 1."""
    for i, u in enumerate(scaled):
        if len(u) != d:
            raise InputError(
                f"vector {i} has dimension {len(u)}, target has {d}")
        if not any(u):
            raise InputError(f"vector {i} is zero")
        if ceil_norm_over(norm, u, den) > 1:
            raise InputError(f"vector {i} lies outside the unit ball")


class Instance(Frozen):
    """A verification instance: nonzero unit-ball vectors, target, norm.

    Construction checks the hypotheses up front, in integers
    (check_vectors): scaled holds the vectors times den, the lcm of their
    coordinate denominators (concentration.scaled_vectors).  den and
    scaled stay out of equality, hashing and repr.
    """

    __slots__ = ("vectors", "target", "norm", "den", "scaled")
    _args = ("vectors", "target", "norm")

    def __init__(self, vectors: tuple[RVector, ...], target: RVector,
                 norm: NormSpec):
        if not vectors:
            raise InputError("instance needs at least one vector")
        d = len(target)
        if d == 0:
            raise InputError("empty target")
        if norm.kind == POLY and norm.dimension != d:
            raise InputError(
                f"norm is on {norm.dimension} coordinates, instance has {d}")
        try:
            den = math.lcm(*(c.denominator for v in vectors for c in v))
        except AttributeError:
            raise InputError("vector coordinates must be exact rationals "
                             "(int or Fraction)") from None
        scaled = tuple(tuple(c.numerator * (den // c.denominator) for c in v)
                       for v in vectors)
        check_vectors(norm, den, scaled, d)
        if not all(hasattr(c, "denominator") for c in target):
            raise InputError("target coordinates must be exact rationals "
                             "(int or Fraction)")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "norm", norm)
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


class ProjectedInstance(NamedTuple):
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


class VerificationReport(NamedTuple):
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

    From d = 3 on, w can lie on two hyperplanes that no single direction
    leaves at once, so a last pass follows that cannot fail: z is
    sum_j t^(j-1) a_j / sum_j t^(j-1) over a_j = e_j (l1, linf),
    ||w||_inf e_j (l2) or the functionals f_j (poly), which lie in the
    dual ball at scale s, for the least t >= 1 with every <v_i, z>
    nonzero, and eta the first of 2^-3, 2^-6, ... that passes.  The
    search runs on integers, in Chain.perturb.
    """
    chain = Chain(instance.norm, instance.den, instance.scaled)
    u, q = target_units(instance.den, instance.target)
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
    """The chain for a norm and the vectors scaled / den, integer vectors
    that check_vectors accepts (an Instance's den and scaled, or a sweep
    representative in its grid's units): a target is an integer vector u
    over q >= 1 in the same units (q = 1 for the sums of scaled_sums).
    A projection is cached under the (w, s) it was asked for, for many
    targets."""

    def __init__(self, norm: NormSpec, den: int,
                 scaled: tuple[tuple[int, ...], ...]):
        self.norm, self.den, self.scaled = norm, den, scaled
        self.squared = norm.kind == L2
        self._projections: dict = {}

    def _projection(self, w: tuple[int, ...], s: int) -> Projection:
        """The projection along w at scale s, built on first use."""
        proj = self._projections.get((w, s))
        if proj is None:
            proj = self._projections[w, s] = Projection(
                self.scaled, w, s, self.squared)
        return proj

    def locate(self, u: tuple[int, ...], q: int = 1):
        """(projection, t, k, perturbed) for the target u / q: the
        projected target is t / q along the projection's w, and
        perturbed is None or (c, m), the perturbed witness direction c / m
        in the vectors' own units."""
        # w = lam * D for the direction D of dual_witness; its scale is
        # den lam (dual unit vectors), or the square den^2 <w, w> for l2.
        w, lam = integer_witness(self.norm, witness_target(u))
        s = self.den ** 2 * dot(w, w) if self.squared else self.den * lam
        proj = self._projection(w, s)
        k = ceil_norm_over(self.norm, u, q * self.den)
        perturbed = None
        if proj.failure == ZERO_COEFFICIENT:
            if self.squared and not is_zero(u):
                lam = q * self.den  # D = x = u / (q den)
            c, s, m = self.perturb(w, s, lam, u, q, k)
            proj, perturbed = self._projection(c, s), (c, m)
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
        its scale s', with c / m the w' that perturb_witness returns.  The
        last pass always yields one; Chain.locate checks it."""
        den, squared, vectors = self.den, self.squared, self.scaled
        fden, rows = self.norm.integer_functionals or (1, ())
        # With lam a multiple of den and fden, lam * z is integral for
        # every z, and so is lam / fden times every functional row.
        f = math.lcm(den, fden, lam) // lam
        lam *= f
        base = tuple(f * a for a in w)
        s = _times(s, f, squared)
        d, n = len(w), len(vectors)
        axes = [tuple(sign * (i == j) for i in range(d))
                for j in range(d) for sign in (lam, -lam)]
        dirs = [tuple(lam // den * a for a in v) for v in vectors]
        for e in ETA_EXPONENTS:
            # c = 2^e lam ((1 - eta) D + eta z), at scale 2^e s
            keep, se = (1 << e) - 1, _times(s, 1 << e, squared)
            for z in axes + dirs:
                c = tuple(keep * a + b for a, b in zip(base, z))
                if certificate_failure(
                        se, squared, [dot(v, c) for v in vectors],
                        dot(u, c), q, k) is None:
                    return c, se, lam << e
        # The last pass cannot fail.  The a_j span the space and lie in
        # the dual ball at the scale of w: lam e_j for l1 and linf,
        # max_j |w_j| e_j for l2 (||w||_inf <= ||w||_2), lam / fden f_j
        # for poly.  By convexity so does z / W, with z = sum_j t^(j-1) a_j
        # and W = sum_j t^(j-1), and each <v_i, z> is a nonzero polynomial
        # in t of degree below m = len(span): some t <= n(m-1)+1 serves.
        if rows:
            span = [tuple(lam // fden * a for a in row) for row in rows]
        else:
            r = max(map(abs, base)) if squared else lam
            span = [tuple(r * (i == j) for i in range(d)) for j in range(d)]
        for t in range(1, n * (len(span) - 1) + 2):
            z = [sum(t ** j * a[i] for j, a in enumerate(span))
                 for i in range(d)]
            moved = [dot(v, z) for v in vectors]
            if all(moved):
                break
        weight = sum(t ** j for j in range(len(span)))
        held, t0 = [dot(v, base) for v in vectors], dot(u, base)
        for e in count(3, 3):
            # c = 2^e W lam ((1 - eta) D + eta z / W), at scale 2^e W s.
            # Two sufficient conditions bound e: (2^e - 1) W |<v_i, w>| >
            # |<v_i, z>| keeps every nonzero <v_i, w> nonzero, and
            # (1 - 2^(1-e)) ||x|| > k - 1 keeps ceil <x, w'> = k, since
            # <x, w'> lies in [(1 - 2 eta) ||x||, ||x||] at scale 1.
            keep = ((1 << e) - 1) * weight
            c = tuple(keep * a + b for a, b in zip(base, z))
            se = _times(s, weight << e, squared)
            bound = (all(keep * abs(a) > abs(b)
                         for a, b in zip(held, moved) if a)
                     and ceil_ratio(((1 << e) - 2) * t0,
                                    _times(s, q << e, squared),
                                    squared) == k)
            if bound or certificate_failure(
                    se, squared, [keep * a + b for a, b in zip(held, moved)],
                    dot(u, c), q, k) is None:
                return c, se, lam * weight << e

    def counts(self, u: tuple[int, ...]) -> tuple[int, int]:
        """(projected, allowed) sign-pattern counts for the target u."""
        proj, t, k, _ = self.locate(u)
        return proj.count(t), lo_count(len(self.scaled), k)

    def probe(self, u: tuple[int, ...], q: int = 1):
        """The chain at the one target u / q, in sign-pattern counts over
        2^n: (count, projected, allowed, k, perturbed), count and
        projected the two atoms as single-target probes on half tables,
        of the scaled vectors at u / q and of the projected coefficients
        at t / q, allowed = lo_count(n, k), and perturbed as in locate."""
        proj, t, k, perturbed = self.locate(u, q)
        column = [(c,) for c in proj.coefficients]
        return (probe_count(self.scaled, u, q), probe_count(column, (t,), q),
                lo_count(len(self.scaled), k), k, perturbed)


def project(instance: Instance) -> ProjectedInstance:
    """The chain's projection as exact rationals along the instance's
    witness: the dual witness of the target (of e_1 when x = 0, where
    k = 0 and any direction works), or its perturbation."""
    chain = Chain(instance.norm, instance.den, instance.scaled)
    u, q = target_units(instance.den, instance.target)
    proj, t, k, perturbed = chain.locate(u, q)
    w = dual_witness(instance.norm, vector(witness_target(instance.target)))
    if perturbed is not None:
        c, m = perturbed
        w = Witness(tuple(Fraction(a, m) for a in c), w.scale)
    # proj.w is a positive multiple of w.direction, so the chain's
    # coefficients and t / q are unit > 0 times their rational values.
    j = next(j for j, a in enumerate(w.direction) if a)
    unit = chain.den * proj.w[j] / w.direction[j]
    return ProjectedInstance(tuple(c / unit for c in proj.coefficients),
                             t / (q * unit), w.scale, k,
                             perturbed is not None)


def verify_instance(instance: Instance) -> VerificationReport:
    """Run the full chain p_exact <= p_projected <= bound, all exact:
    Chain.probe at the instance's target, over 2^n."""
    chain = Chain(instance.norm, instance.den, instance.scaled)
    count, projected, _, k, perturbed = chain.probe(
        *target_units(instance.den, instance.target))
    p_exact = Fraction(count, 2 ** instance.n)
    p_projected = Fraction(projected, 2 ** instance.n)
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

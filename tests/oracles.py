"""Brute-force oracles used to pin expected values in the tests.

The enumerators count literally (sign patterns via itertools, the
Pascal triangle via its additive recurrence) and share no code with
the library's counting paths.  The perturbation search is kept in its
rational form, as the reference for the library's integer search, and
the exhaustive-grid sweep in its unreduced form, every target of every
multiset verified alone, as the reference for the orbit sweep.  The
single-instance chain is kept on full sum tables (reference_verify), as
the reference for its half-table probes, and the random sampler in
Fraction arithmetic (reference_gen_random), as the reference for its
integer draws.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

from littlewood_offord import (CampaignReport, InputError, Instance,
                               PerturbationError, VerificationReport,
                               Violation, Witness, ceil_norm, delta,
                               format_norm, in_unit_ball, is_zero, lo_bound,
                               reachable_sums_nd, sum_table_1d, sum_table_nd,
                               verify_instance)
from littlewood_offord.campaign import (_RECORDED_FAILURES, _VECTOR_RETRIES,
                                        _TaskResult, _tally)
from littlewood_offord.reduction import Chain


def enumerate_atom_1d(a, t) -> Fraction:
    n = len(a)
    hits = sum(1 for signs in product((1, -1), repeat=n)
               if sum(s * q for s, q in zip(signs, a)) == t)
    return Fraction(hits, 2 ** n)


def enumerate_atom_nd(vectors, x) -> Fraction:
    n = len(vectors)
    d = len(x)
    hits = 0
    for signs in product((1, -1), repeat=n):
        sums = tuple(sum(s * v[j] for s, v in zip(signs, vectors))
                     for j in range(d))
        if all(sj == xj for sj, xj in zip(sums, x)):
            hits += 1
    return Fraction(hits, 2 ** n)


def enumerate_table_1d(a) -> Counter:
    table = Counter()
    for signs in product((1, -1), repeat=len(a)):
        table[sum(s * q for s, q in zip(signs, a))] += 1
    return table


def enumerate_table_nd(vectors) -> Counter:
    d = len(vectors[0])
    table = Counter()
    for signs in product((1, -1), repeat=len(vectors)):
        table[tuple(sum(s * v[j] for s, v in zip(signs, vectors))
                    for j in range(d))] += 1
    return table


def pascal_binomial(n: int, m: int) -> int:
    """C(n, m) by the Pascal recurrence; no factorials, no math.comb."""
    if m < 0 or m > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[m]


def pascal_atom(n: int, m: int) -> Fraction:
    """P(R_n = m) by convolving the half-half step distribution n times."""
    dist = {0: Fraction(1)}
    for _ in range(n):
        nxt = {}
        for s, p in dist.items():
            for u in (s + 1, s - 1):
                nxt[u] = nxt.get(u, Fraction(0)) + p / 2
        dist = nxt
    return dist.get(m, Fraction(0))


def _ceil_over_scale(t, scale) -> int:
    """ceil(t / s) for the exact scale s of a witness."""
    if scale.kind == "rational":
        return math.ceil(t / scale.value)
    r = t * t / scale.value                        # (t / s)^2
    m = math.isqrt(r.numerator // r.denominator)   # floor(|t| / s)
    if t <= 0:
        return -m
    return m if m * m == r else m + 1


def _within_scale(c, scale) -> bool:
    if scale.kind == "rational":
        return abs(c) <= scale.value
    return c * c <= scale.value


def reference_perturb_witness(instance, w):
    """The perturbation schedule in rational arithmetic: for eta in
    2^-3, 2^-6, ..., 2^-30 and z in +e_1, -e_1, ..., +e_d, -e_d, v_1,
    ..., v_n, the first w' = (1 - eta) w + eta z whose coefficients
    <v_i, w'> are nonzero and at most the scale s of w in absolute
    value, and with ceil(<x, w'> / s) = ceil ||x||; when none passes,
    the same over +z(t), -z(t), z(t) = (1, t, ..., t^(d-1)),
    t = 1, ..., n(d-1)+1; when none passes either and x = 0, the first
    of those z(t) whose coefficients are all nonzero, halved until they
    lie within the scale."""
    d, n = len(instance.target), len(instance.vectors)
    x = instance.target
    k = ceil_norm(instance.norm, x)
    dirs = []
    for j in range(d):
        for sign in (1, -1):
            z = [Fraction(0)] * d
            z[j] = Fraction(sign)
            dirs.append(tuple(z))
    dirs.extend(instance.vectors)
    curve = []
    for t in range(1, n * (d - 1) + 2):
        z = tuple(Fraction(t ** j) for j in range(d))
        curve += [z, tuple(-c for c in z)]
    tried = 0
    for schedule in (dirs, curve):
        for exp in range(3, 31, 3):
            eta = Fraction(1, 2 ** exp)
            for z in schedule:
                tried += 1
                cand = tuple((1 - eta) * a + eta * b
                             for a, b in zip(w.direction, z))
                coeffs = [sum(a * b for a, b in zip(v, cand))
                          for v in instance.vectors]
                t = sum(a * b for a, b in zip(x, cand))
                if (all(coeffs)
                        and all(_within_scale(c, w.scale) for c in coeffs)
                        and _ceil_over_scale(t, w.scale) == k):
                    return Witness(cand, w.scale)
    if all(c == 0 for c in x):
        for z in curve:
            coeffs = [sum(a * b for a, b in zip(v, z))
                      for v in instance.vectors]
            if all(coeffs):
                f = Fraction(1)
                while not all(_within_scale(f * c, w.scale) for c in coeffs):
                    f /= 2
                return Witness(tuple(f * c for c in z), w.scale)
    raise PerturbationError(
        f"no acceptable witness perturbation among {tried} candidates")


def outcome(fn, *args):
    """fn(*args), or the type and message of the recorded error it
    raised, so that two paths compare equal only if they fail alike."""
    try:
        return fn(*args)
    except _RECORDED_FAILURES as exc:
        return type(exc), str(exc)


def per_instance_task(norm, vectors):
    """verify_instance, a batch of one, over every reachable target of
    one multiset."""
    res = _TaskResult()
    for target in reachable_sums_nd(vectors):
        local = res.count
        res.count += 1
        try:
            instance = Instance(vectors, target, norm)
            _tally(res, local, instance, verify_instance(instance))
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def reference_sweep(config) -> CampaignReport:
    """The exhaustive-grid campaign unreduced: per_instance_task on every
    multiset of nonzero unit-ball grid vectors, for each norm, d and n in
    config order, multisets in combinations_with_replacement order and
    instances indexed along that stream."""
    report = CampaignReport(mode=config.mode)
    for norm in config.norms:
        for d in range(config.d_min, config.d_max + 1):
            if norm.dimension not in (None, d):
                continue
            universe = [p for p in product(sorted(config.grid), repeat=d)
                        if any(p) and in_unit_ball(norm, p)]
            for n in range(config.n_min, config.n_max + 1):
                for combo in combinations_with_replacement(universe, n):
                    part = per_instance_task(norm, combo)
                    offset = report.instances
                    report.instances += part.count
                    report.tight += part.tight
                    report.max_ratio = max(report.max_ratio, part.max_ratio)
                    report.violations += [
                        Violation(offset + local, instance, vrep)
                        for local, instance, vrep in part.violations]
                    report.errors += [(offset + local, message)
                                      for local, message in part.errors]
    return report


def reference_verify(instance) -> VerificationReport:
    """verify_instance on full tables: p_exact from the n-d sum table of
    the vectors and p_projected from the 1-d sum table of the projected
    coefficients, both read at the target."""
    chain = Chain(instance)
    u, q = chain.units(instance.target)
    proj, t, k, perturbed = chain.locate(u, q)
    count = sum_table_nd(instance.vectors).get(instance.target, 0)
    p_exact = Fraction(count, 2 ** instance.n)
    projected = sum_table_1d(proj.coefficients).get(Fraction(t, q), 0)
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


def reference_gen_random(seed, n, d, norm, grid_denominator) -> Instance:
    """gen_random in Fraction arithmetic: each coordinate drawn as
    Fraction(randint(-g, g), g), a draw kept when nonzero and inside the
    unit ball by in_unit_ball, and the target summed in Fractions."""
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    g = grid_denominator
    if g < 1:
        raise InputError(f"grid_denominator must be positive, got {g}")
    rng = random.Random(seed)
    vectors = []
    for _ in range(n):
        for _ in range(_VECTOR_RETRIES):
            v = tuple(Fraction(rng.randint(-g, g), g) for _ in range(d))
            if not is_zero(v) and in_unit_ball(norm, v):
                vectors.append(v)
                break
        else:
            raise InputError(
                f"could not sample a nonzero unit-ball vector for "
                f"{format_norm(norm)} on the 1/{g} grid "
                f"after {_VECTOR_RETRIES} tries")
    if rng.random() < 0.5:
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        target = tuple(sum(s * v[j] for s, v in zip(signs, vectors))
                       for j in range(d))
    else:
        target = tuple(Fraction(rng.randint(-g, g), g) for _ in range(d))
    return Instance(tuple(vectors), target, norm)

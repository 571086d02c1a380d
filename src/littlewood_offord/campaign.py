"""Instance generation and verification campaigns.

A campaign streams instances from one of four sources, verifies each
one, and aggregates a deterministic report:

* exhaustive-grid   - every multiset of unit-ball grid vectors, every
                      reachable sum as the target, verified on one
                      reduction.Chain per orbit of the norm's symmetry
                      group (below);
* random            - seeded random instances on a rational grid, each
                      verified at its one target (reduction.Chain.probe)
                      in the grid's integer units; only a violation
                      becomes an Instance, for its record;
* extremal          - the tightness construction (n aligned copies of
                      x / (k + delta)), swept over k;
* uniform-kleitman  - seeded random l2 instances checked against the
                      k = 0 bound via the full distribution table.

Reports depend only on the configuration: work is split into tasks
whose partial results merge in task order, so the worker count changes
scheduling but never the report bytes.  W workers are the parent and
W - 1 forked processes, and W = 1 forks nothing: each generates the
whole task stream and runs every W-th task, the parent tasks 0, W, 2W,
..., and the parent merges its own results and the ones it reads back
in task order.  Wall time is kept in memory only and never serialized,
for the same reason.
Per-instance failures (capacity, infeasible sampling, a failed
certificate) are recorded in the report rather than aborting the
stream.

The eps_i are symmetric, so negating some v_i leaves the law of the
sign sum unchanged, and along any witness it only negates projected
coefficients.  A signed permutation g of the coordinates that fixes the
norm maps (V, x) to (gV, gx) with the same p_exact and k, and it fixes
the dual unit ball: so if w (perturbed or not) certifies the chain for
(V, x), g w certifies it for every multiset +-g v_i at g x, with the
same projected coefficients up to sign and the same projected target.
G holds every such g, with sign flips only when the grid universe's
coordinate values are their own negation: then g keeps each coordinate
among them, u != 0 and the norm, so it maps the universe onto itself.
An exhaustive-grid task therefore verifies one orbit of G x signs on
the chain of its representative alone: the least multiset of sign class
representatives (each vector the larger of +-v when both lie in the
universe).  The parent's orbit search counts the orbit's multisets, and
the task carries that weight with the representative: a target where
the chain holds counts for every multiset of the orbit.  The same holds
for g = -I at the representative itself: its sum table is symmetric, and
if w certifies x then -w certifies -x, with the same projected target
<-x, -w> = <x, w>, projected count, p_exact and k.  So its chain runs
only on the upper half of the table, 0 and the lexicographically
positive sums, and each positive sum is tallied for its negation too.

A sweep stays in its grid's integer units, the grid times den, the lcm
of its denominators, from the universe to each representative's chain:
one positive scale of vectors and targets changes no count, no k and no
certificate.  Only the unreduced rerun below makes Fractions again.

Every valid instance certifies, so a representative that fails or
raises at any target means a program defect or a counterexample, and
then the argument above is not trusted: the runner drops the orbit pass
and reruns the sweep unreduced, every target of every multiset through
verify_instance, indexed along the per-multiset stream.
"""

from __future__ import annotations

import math
import os
import random
import time
from fractions import Fraction
from itertools import (chain, combinations_with_replacement, groupby, islice,
                       permutations, product)
from typing import Iterator, NamedTuple

from .concentration import (EXHAUSTIVE_LIMIT, PROBE_LIMIT, max_atom,
                            reachable_sums_nd, scaled_sums)
from .errors import CapacityError, CertificateError, InputError
from .exactnum import (delta, format_rational, lo_bound, lo_count, parse_int,
                       parse_rational)
from .norms import (L1, L2, LINF, Frozen, NormSpec, RVector, act,
                    ceil_norm_over, fixes_norm, format_norm, parse_norm)
from .reduction import (Chain, Instance, VerificationReport, check_vectors,
                        instance_lines, parse_keyvals, report_lines,
                        verify_instance)

MODES = ("exhaustive-grid", "random", "extremal", "uniform-kleitman")

_BATCH = 64

# The most coordinates an exhaustive-grid sweep may list for one d: its
# universe is filtered from all len(grid)^d grid points, d coordinates
# each, so this bounds the memory of the largest d.
GRID_COORDINATES = 1 << 20

CONFIG_HEADER = "# lo-campaign-config v1"
CAMPAIGN_REPORT_HEADER = "# lo-campaign-report v1"


class CampaignConfig(Frozen):
    """A campaign's settings, validated on construction (and so again
    when a worker unpickles one)."""

    __slots__ = _args = (
        "mode", "norms", "n_min", "n_max", "d_min", "d_max", "grid", "seed",
        "budget", "grid_denominator", "workers")

    def __init__(self, mode: str, norms: tuple[NormSpec, ...] = (),
                 n_min: int = 1, n_max: int = 4, d_min: int = 2,
                 d_max: int = 2, grid: tuple[Fraction, ...] = (),
                 seed: int = 0, budget: int = 0, grid_denominator: int = 4,
                 workers: int = 1):
        for name, value in zip(self._args, (
                mode, norms, n_min, n_max, d_min, d_max, grid, seed, budget,
                grid_denominator, workers)):
            object.__setattr__(self, name, value)
        if self.mode not in MODES:
            raise InputError(f"unknown campaign mode {self.mode!r}")
        if not 1 <= self.n_min <= self.n_max:
            raise InputError(f"bad n range {self.n_min}..{self.n_max}")
        if not 1 <= self.d_min <= self.d_max:
            raise InputError(f"bad d range {self.d_min}..{self.d_max}")
        if self.budget < 0:
            raise InputError(f"budget cannot be negative, got {self.budget}")
        if self.grid_denominator < 1:
            raise InputError(
                f"grid_denominator must be positive, got {self.grid_denominator}")
        if self.workers < 1:
            raise InputError(f"workers must be positive, got {self.workers}")
        # Compared by value: 2/2 repeats 1.
        if len(set(self.grid)) < len(self.grid):
            raise InputError("grid values must be distinct")
        if len(set(self.norms)) < len(self.norms):
            raise InputError("norms must be distinct")
        if self.mode in ("exhaustive-grid", "uniform-kleitman"):
            if self.n_max > EXHAUSTIVE_LIMIT:
                raise CapacityError(
                    f"{self.mode} enumerates full sum tables and supports "
                    f"n up to {EXHAUSTIVE_LIMIT}, got {self.n_max}")
        elif self.n_max > PROBE_LIMIT:
            raise CapacityError(
                f"{self.mode} verifies atom probes and supports "
                f"n up to {PROBE_LIMIT}, got {self.n_max}")
        if self.mode == "exhaustive-grid":
            if not self.grid:
                raise InputError("exhaustive-grid mode needs grid values")
            # d_max len(grid)^d_max, multiplied out only while it is
            # within the limit.
            listed = self.d_max
            for _ in range(self.d_max if len(self.grid) > 1 else 0):
                if listed > GRID_COORDINATES:
                    break
                listed *= len(self.grid)
            if listed > GRID_COORDINATES:
                raise CapacityError(
                    f"exhaustive-grid lists d * {len(self.grid)}^d grid "
                    f"coordinates and supports at most {GRID_COORDINATES}, "
                    f"which d = {self.d_max} exceeds")
            if not self.norms:
                raise InputError("exhaustive-grid mode needs norms")
            for nm in self.norms:
                if (nm.dimension is not None
                        and not self.d_min <= nm.dimension <= self.d_max):
                    raise InputError(
                        f"norm {format_norm(nm)} fits no dimension in "
                        f"{self.d_min}..{self.d_max}")
        elif self.mode == "random":
            if not self.norms:
                raise InputError("random mode needs norms")
        elif self.mode == "extremal":
            if not self.norms:
                raise InputError("extremal mode needs norms")
            for nm in self.norms:
                if nm.kind not in (L1, L2, LINF):
                    raise InputError(
                        "extremal mode needs axis-symmetric norms "
                        f"(l1, l2, linf), got {format_norm(nm)}")
        elif self.norms:  # uniform-kleitman
            raise InputError(
                "uniform-kleitman mode always draws l2 instances and "
                "takes no norms")

    def replace(self, **changes) -> CampaignConfig:
        """This config with the named fields changed, validated anew: the
        --workers override."""
        return CampaignConfig(**dict(zip(self._args, self._key()), **changes))


class Violation(NamedTuple):
    """A chain failure, kept replayable: index in the instance stream,
    the instance itself, and its verification report."""

    index: int
    instance: Instance
    report: VerificationReport


class CampaignReport:
    """A campaign's counters, violations and errors (index, message)."""

    __slots__ = ("mode", "instances", "tight", "max_ratio", "violations",
                 "errors", "wall_time")

    def __init__(self, mode: str, instances: int = 0, tight: int = 0,
                 max_ratio: Fraction = Fraction(0),
                 violations: list[Violation] | None = None,
                 errors: list[tuple[int, str]] | None = None,
                 wall_time: float = 0.0):
        self.mode = mode
        self.instances = instances
        self.tight = tight
        self.max_ratio = max_ratio
        self.violations = [] if violations is None else violations
        self.errors = [] if errors is None else errors
        # In-memory diagnostics only; serialized reports must be
        # byte-identical across runs and worker counts.
        self.wall_time = wall_time

    @property
    def verified(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        """violations-found if the chain failed anywhere, else incomplete
        if some instance could not be verified, else verified."""
        if self.violations:
            return "violations-found"
        return "incomplete" if self.errors else "verified"


def gen_extremal(n: int, norm: NormSpec, norm_value) -> Instance:
    """Tightness instance: n copies of (c, 0) with c = value / (k + delta),
    target (value, 0), where k = ceil(value).

    The sign sum hits the target exactly when the +-1 count sum equals
    k + delta, so the verified probability meets lo_bound(n, k) with
    equality.  Valid for l1, l2, linf, whose unit balls all meet the
    first axis at 1; requires 0 < value <= n so that c <= 1.
    """
    value = Fraction(norm_value)
    if norm.kind not in (L1, L2, LINF):
        raise InputError(
            "extremal construction needs an axis-symmetric norm (l1, l2, linf), "
            f"got {format_norm(norm)}")
    if n < 1:
        raise InputError(f"extremal construction needs n >= 1, got {n}")
    if not 0 < value <= n:
        raise InputError(
            f"extremal construction needs 0 < norm_value <= n, "
            f"got {format_rational(value)} with n = {n}")
    k = math.ceil(value)
    step = k + delta(n, k)
    # step <= n always: k <= n, and when k = n the offset is delta(n, n) = 0.
    c = value / step
    zero = Fraction(0)
    vectors = tuple((c, zero) for _ in range(n))
    return Instance(vectors, (value, zero), norm)


_VECTOR_RETRIES = 1000


def _draw(seed: int, n: int, d: int, norm: NormSpec,
          g: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """gen_random's draw in integer units: the numerators over g of its
    vectors and its target."""
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if g < 1:
        raise InputError(f"grid_denominator must be positive, got {g}")
    if norm.dimension not in (None, d):
        raise InputError(f"dimension mismatch: norm is on {norm.dimension} "
                         f"coordinates, vector has {d}")
    # ||a / g|| <= 1 exactly when ceil(||a|| / g) <= 1.  choice on the
    # range makes the one _randbelow(2g + 1) call of randint(-g, g).
    rng = random.Random(seed)
    coords = range(-g, g + 1)
    draws: list[tuple[int, ...]] = []
    for _ in range(n):
        for _ in range(_VECTOR_RETRIES):
            a = tuple(rng.choice(coords) for _ in range(d))
            if any(a) and ceil_norm_over(norm, a, g) <= 1:
                draws.append(a)
                break
        else:
            raise InputError(
                f"could not sample a nonzero unit-ball vector for "
                f"{format_norm(norm)} on the 1/{g} grid "
                f"after {_VECTOR_RETRIES} tries")
    if rng.random() < 0.5:
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        target = tuple(sum(s * a[j] for s, a in zip(signs, draws))
                       for j in range(d))
    else:
        target = tuple(rng.choice(coords) for _ in range(d))
    return tuple(draws), target


def _instance(vectors: tuple[tuple[int, ...], ...], target: tuple[int, ...],
              g: int, norm: NormSpec) -> Instance:
    """The Instance of integer vectors and target over g, in Fractions."""
    return Instance(tuple(tuple(Fraction(c, g) for c in a) for a in vectors),
                    tuple(Fraction(c, g) for c in target), norm)


def gen_random(seed: int, n: int, d: int, norm: NormSpec,
               grid_denominator: int) -> Instance:
    """Seeded random instance on the grid {-g, ..., g} / g.

    Vectors are rejection-sampled with the exact ball membership test
    until nonzero and inside the unit ball (bounded retries, then an
    error: the grid is too coarse for the ball).  With probability 1/2
    the target is the sum of a uniform sign assignment, which is a
    reachable sum and stresses the equality event; otherwise it is an
    independent grid point.
    """
    return _instance(*_draw(seed, n, d, norm, grid_denominator),
                     grid_denominator, norm)


def _derive_seed(seed: int, index: int) -> int:
    # Stable per-instance seed stream, independent of batching.  Only the
    # seeded modes load hashlib (_build_tasks).
    from hashlib import sha256
    digest = sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _negated(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-c for c in u)


# Above d = 4 the group is the identity, and orbits are sign orbits.  G
# is read off the norm and the universe's coordinate values, so its build
# tries no g on the universe; it costs perms, |G| act calls per class,
# and the orbit search, which tests each class permutation on every
# least prefix.  At d = 4 (384 candidates) the group pays: against sign
# orbits alone (2-core Xeon, CPython 3.11, one worker, whole lo campaign
# processes, the same reports), l1 and linf on -1, 0, 1 at n <= 3 took
# 0.15-0.16 s against 2.0-2.2 s, and l1, l2 and linf on -1, -1/2, 0,
# 1/2, 1 at n <= 2 took 0.35-0.39 s against 3.5-3.6 s.  At d = 5 (3,840
# candidates) it pays on some sweeps only: with the cap at 5, l1 and
# linf on -1, 0, 1 at n <= 3 took 1.5 s against 63.4 s, with the same
# report, but linf on -1, -1/2, 0, 1/2, 1 at n = 1 took 5.2 s against
# 0.12 s, nearly all of it perms on 1,562 classes.
_SYMMETRY_DIMENSIONS = 4


class _Classes:
    """The sign classes of one (norm, d) grid universe of integer
    vectors, +-u when both lie in it, else u alone, and the group G that
    permutes them.

    reps holds each class's representative (the larger of +-u), in
    universe order, and mirrored whether the class holds two vectors.
    group holds G, the signed coordinate permutations (norms.act) that
    fix the norm, with sign flips only when the universe's coordinate
    values are their own negation, the identity first.  Each keeps every
    coordinate among those values, u != 0 and the norm, so it maps the
    universe onto itself.  Where coordinates differ in reach, G can be a
    subgroup of the universe's full symmetry, whose finer orbits cost
    tasks and never report bytes.  perms holds each permutation of the
    classes that some g in G induces (g -v = -g v) once, the identity
    first: g and -g induce the same one, and on the l1 grid -1, 0, 1 so
    do all 2^d sign flips."""

    def __init__(self, universe: list[tuple], d: int, norm: NormSpec):
        inside = set(universe)
        reps = [u for u in universe
                if _negated(u) not in inside or u > _negated(u)]
        at = {u: i for i, u in enumerate(reps)}
        at.update([(_negated(u), i) for u, i in list(at.items())
                   if _negated(u) in inside])
        group = [tuple((j, 1) for j in range(d))]
        if d <= _SYMMETRY_DIMENSIONS:
            values = {c for u in universe for c in u}
            flips = (1, -1) if values == {-c for c in values} else (1,)
            for perm in permutations(range(d)):
                for signs in product(flips, repeat=d):
                    g = tuple(zip(perm, signs))
                    if g != group[0] and fixes_norm(norm, g):
                        group.append(g)
        self.reps = tuple(reps)
        self.mirrored = tuple(_negated(u) in inside for u in reps)
        self.group = tuple(group)
        self.perms = tuple(dict.fromkeys(
            tuple(at[act(g, u)] for u in reps) for g in group))

    def orbits(self, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """The orbits of G x signs on the n-multisets of the universe, in
        combinations_with_replacement order of their least multiset of
        classes: that multiset, as class indices, and the orbit's weight,
        the number of multisets of the universe in it.  That is its
        orbit's size under perms, len(perms) over the number of perms
        that fix it, times its sign choices, m + 1 for each mirrored
        class it holds m times, which every multiset of the orbit shares.

        A prefix of a least multiset is least in its own orbit: if
        sorted(g P) < P for a prefix P, then sorted(g C) < C, since the
        i-th least of g C is at most the i-th least of g P.  So the
        search extends only least prefixes (orderly generation;
        B. McKay, "Isomorph-free exhaustive generation", J. Algorithms
        26, 1998)."""
        def extend(prefix: tuple, start: int):
            for i in range(start, len(self.reps)):
                combo = prefix + (i,)
                stabilizer = 0
                for p in self.perms:
                    image = tuple(sorted([p[j] for j in combo]))
                    if image < combo:
                        break
                    stabilizer += image == combo
                else:
                    if len(combo) < n:
                        yield from extend(combo, i)
                    else:
                        signs = math.prod(
                            len(list(copies)) + 1
                            for j, copies in groupby(combo)
                            if self.mirrored[j])
                        yield combo, len(self.perms) // stabilizer * signs
        return extend((), 0)


def _grid_universes(config: CampaignConfig) -> Iterator[
        tuple[NormSpec, int, int, list[tuple[int, ...]]]]:
    """The (norm, d, den, universe) of an exhaustive-grid sweep, in
    report order: den is the lcm of the grid's denominators, and universe
    the integer vectors u != 0 with u / den in grid^d and
    ceil(||u|| / den) <= 1, in product(sorted(grid)) order."""
    den = math.lcm(*(c.denominator for c in config.grid))
    coords = sorted(c.numerator * (den // c.denominator) for c in config.grid)
    for norm in config.norms:
        for d in range(config.d_min, config.d_max + 1):
            # Fixed-dimension norms (facet form) only apply to matching d.
            if norm.dimension in (None, d):
                yield norm, d, den, [
                    u for u in product(coords, repeat=d)
                    if any(u) and ceil_norm_over(norm, u, den) <= 1]


def _tally(res: CampaignReport, local: int, instance: Instance,
           report: VerificationReport) -> None:
    """Record a failed chain at local, then tally the instance in pattern
    counts over 2^n (_tally_counts)."""
    if not report.chain_holds:
        res.violations.append(Violation(local, instance, report))
    scale = 2 ** instance.n
    count, allowed = int(report.p_exact * scale), int(report.bound * scale)
    _tally_counts(res, count, allowed, 1)


def _tally_counts(res: CampaignReport, count: int, allowed: int,
                  weight: int) -> None:
    """Tally the tight count and max_ratio of a target, in pattern counts
    over 2^n, for weight instances (which the caller counts).  A zero
    allowed count (k > n) has no ratio."""
    if count == allowed:
        res.tight += weight
    best = res.max_ratio
    # count / allowed > best, cross-multiplied (allowed > 0)
    if allowed > 0 and count * best.denominator > best.numerator * allowed:
        res.max_ratio = Fraction(count, allowed)


_RECORDED_FAILURES = (InputError, CapacityError, CertificateError)


def _task_orbit(norm: NormSpec, den: int, rep: tuple[tuple[int, ...], ...],
                weight: int) -> CampaignReport | None:
    """Verify every reachable target of every multiset in the orbit of
    rep, integer vectors over den, under G x signs (see the module
    docstring), weight multisets.  rep's chain runs in pattern counts
    over 2^n, p_exact read off the sum table of rep, which lives only as
    long as this task, on the upper half of that table: 0, tallied once
    for the whole orbit, and each positive sum u, tallied twice, since
    the certificate of u, negated, certifies -u.  None, the task
    faulted, if check_vectors rejects rep, as it would an Instance's
    vectors, or rep's chain fails or raises at any target of that half."""
    try:
        check_vectors(norm, den, rep, len(rep[0]))
        chain = Chain(norm, den, rep)
        res = CampaignReport("exhaustive-grid")
        sums = scaled_sums(rep)
        # The table is symmetric, so its upper half from the middle on is
        # 0, where reachable, and the lexicographically positive sums.
        for u, count in sums[len(sums) // 2:]:
            projected, allowed = chain.counts(u)
            if not count <= projected <= allowed:
                return None
            members = 2 * weight if any(u) else weight
            res.instances += members
            _tally_counts(res, count, allowed, members)
    except _RECORDED_FAILURES:
        return None
    return res


def _task_multiset(norm: NormSpec, vectors: tuple[RVector, ...]
                   ) -> CampaignReport:
    """verify_instance, a batch of one, on every reachable target of one
    multiset of a sweep."""
    res = CampaignReport("exhaustive-grid")
    for local, target in enumerate(reachable_sums_nd(vectors)):
        res.instances += 1
        try:
            instance = Instance(vectors, target, norm)
            _tally(res, local, instance, verify_instance(instance))
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def _task_random(cfg: CampaignConfig, start: int,
                 count: int) -> CampaignReport:
    """count random instances from start on, each verified by
    Chain.probe in its grid's integer units; only a violation builds the
    Instance and the verify_instance report of its record."""
    g = cfg.grid_denominator
    res = CampaignReport(cfg.mode)
    for local in range(count):
        rng = random.Random(_derive_seed(cfg.seed, start + local))
        n = rng.randint(cfg.n_min, cfg.n_max)
        d = rng.randint(cfg.d_min, cfg.d_max)
        # Fixed-dimension norms (facet form) only apply to matching d.
        fits = [nm for nm in cfg.norms if nm.dimension in (None, d)]
        norm = fits[rng.randrange(len(fits))] if fits else None
        sub_seed = rng.getrandbits(64)
        res.instances += 1
        try:
            if norm is None:
                raise InputError(f"no configured norm fits dimension {d}")
            vectors, target = _draw(sub_seed, n, d, norm, g)
            check_vectors(norm, g, vectors, d)
            exact, projected, allowed, _, _ = Chain(
                norm, g, vectors).probe(target)
            if not exact <= projected <= allowed:
                instance = _instance(vectors, target, g, norm)
                res.violations.append(Violation(
                    local, instance, verify_instance(instance)))
            _tally_counts(res, exact, allowed, 1)
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def _task_extremal(norm: NormSpec, n: int) -> CampaignReport:
    res = CampaignReport("extremal")
    for k in range(1, n + 1):
        for value in (Fraction(k), Fraction(k) - Fraction(1, 2)):
            local = res.instances
            res.instances += 1
            try:
                instance = gen_extremal(n, norm, value)
                _tally(res, local, instance, verify_instance(instance))
            except _RECORDED_FAILURES as exc:
                res.errors.append((local, str(exc)))
    return res


def _task_uniform(cfg: CampaignConfig, start: int,
                  count: int) -> CampaignReport:
    """count seeded l2 draws from start on, each checked at its most
    probable sum against the k = 0 bound, in pattern counts over 2^n;
    only a violation builds the Instance of its record."""
    l2 = NormSpec.l2()
    g = cfg.grid_denominator
    res = CampaignReport(cfg.mode)
    for local in range(count):
        rng = random.Random(_derive_seed(cfg.seed, start + local))
        n = rng.randint(cfg.n_min, cfg.n_max)
        d = rng.randint(cfg.d_min, cfg.d_max)
        sub_seed = rng.getrandbits(64)
        res.instances += 1
        try:
            vectors, _ = _draw(sub_seed, n, d, l2, g)
            # On the integer draws, the most probable sum is u / g.
            u, p = max_atom(vectors)
            exact = p.numerator * 2 ** n // p.denominator
            allowed = lo_count(n, 0)
            if exact > allowed:
                res.violations.append(Violation(
                    local, _instance(vectors, u, g, l2), VerificationReport(
                        p_exact=p, p_projected=p, bound=lo_bound(n, 0), k=0,
                        delta=delta(n, 0), chain_holds=False, tight=False,
                        perturbed=False)))
            _tally_counts(res, exact, allowed, 1)
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def _run_task(task: tuple) -> CampaignReport | None:
    return task[0](*task[1:])


def _build_tasks(config: CampaignConfig) -> Iterator[tuple]:
    """The campaign's tasks in report order, one at a time."""
    if config.mode == "exhaustive-grid":
        # One task per orbit of G x signs, its least multiset of sign
        # class representatives as representative.
        for norm, d, den, universe in _grid_universes(config):
            classes = _Classes(universe, d, norm)
            for n in range(config.n_min, config.n_max + 1):
                for combo, weight in classes.orbits(n):
                    yield (_task_orbit, norm, den,
                           tuple(classes.reps[i] for i in combo), weight)
    elif config.mode == "extremal":
        for norm in config.norms:
            for n in range(config.n_min, config.n_max + 1):
                yield _task_extremal, norm, n
    else:
        # Loaded here, in the parent before _merge forks, so that its
        # workers inherit it: _derive_seed's import is then a lookup.
        import hashlib  # noqa: F401
        task = _task_random if config.mode == "random" else _task_uniform
        for start in range(0, config.budget, _BATCH):
            yield task, config, start, min(_BATCH, config.budget - start)


def _multiset_tasks(config: CampaignConfig) -> Iterator[tuple]:
    """An exhaustive-grid sweep unreduced: one task per multiset of each
    (norm, d, n) block, in combinations_with_replacement order, in
    Fractions again for the instances that its records hold."""
    for norm, _, den, universe in _grid_universes(config):
        vectors = [tuple(Fraction(c, den) for c in u) for u in universe]
        for n in range(config.n_min, config.n_max + 1):
            for combo in combinations_with_replacement(vectors, n):
                yield _task_multiset, norm, combo


def _shard(build, workers: int, j: int, fd: int,
           inherited: list[int]) -> None:
    """A forked worker's whole life: close the inherited read ends of the
    pipes, its own among them, so that a write fails once the parent is
    gone; run the tasks i = j (mod workers) of build(), and write each
    result, or the exception a task raised, pickled to the pipe fd.  It
    stops after a faulted task or an exception, since the parent stops
    reading there, and it always leaves by os._exit: it must not run on
    in the parent's stack."""
    status = 1
    try:
        import pickle
        for other in inherited:
            os.close(other)
        with os.fdopen(fd, "wb") as out:
            for task in islice(build(), j, None, workers):
                try:
                    part = _run_task(task)
                except Exception as exc:
                    out.write(pickle.dumps(exc))
                    break
                out.write(pickle.dumps(part))
                out.flush()
                if part is None:
                    break
        status = 0
    finally:
        os._exit(status)


def _shards(build, tasks: Iterator[tuple],
            workers: int) -> Iterator[CampaignReport | None]:
    """The results of tasks, build()'s stream, in task order, from this
    process and workers - 1 forked ones: task i runs here when i = 0
    (mod workers), else in shard i mod workers (_shard), on that shard's
    own build(), and workers = 1 forks nothing.  An exception a task
    raised is raised here.  A pipe that ends before a result it owes
    means a killed worker, a CapacityError.  However the generator ends,
    its children are killed, if still running, and reaped."""
    if workers > 1:
        import pickle
        import signal
    pids: list[int] = []
    pipes: list = []
    try:
        for j in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _shard(build, workers, j, write,
                       [read] + [pipe.fileno() for pipe in pipes])
            pids.append(pid)
            os.close(write)
            pipes.append(os.fdopen(read, "rb"))
        for i, task in enumerate(tasks):
            j = i % workers
            if j == 0:
                yield _run_task(task)
                continue
            try:
                part = pickle.load(pipes[j - 1])
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pids[j - 1], 0)
                pids[j - 1] = 0
                code = os.waitstatus_to_exitcode(status)
                raise CapacityError(
                    f"campaign worker {j} ended before its tasks did "
                    + (f"(killed by signal {-code})" if code < 0
                       else f"(exit status {code})")) from None
            if isinstance(part, BaseException):
                raise part
            yield part
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _merge(config: CampaignConfig, build) -> CampaignReport | None:
    """The report of the tasks of build(), each part merged in task order
    with its indices shifted by the instances before it; None at the
    first task that faulted, once every worker has ended.  The tasks run
    on W workers (_shards), as many as workers asks, but never more than
    there are tasks or cores, and W = 1 where os.fork is missing."""
    tasks = build()
    # The first tasks, at most one per process, size the shards.
    head = list(islice(tasks, min(config.workers, os.cpu_count() or 1)))
    workers = max(len(head), 1) if hasattr(os, "fork") else 1
    parts = _shards(build, chain(head, tasks), workers)
    report = CampaignReport(mode=config.mode)
    try:
        for part in parts:
            if part is None:
                return None
            offset = report.instances
            report.instances += part.instances
            report.tight += part.tight
            report.max_ratio = max(report.max_ratio, part.max_ratio)
            report.violations += [v._replace(index=offset + v.index)
                                  for v in part.violations]
            report.errors += [(offset + local, message)
                              for local, message in part.errors]
    finally:
        parts.close()
    return report


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured campaign and aggregate its report.

    Tasks are generated as they run and merge in task order with
    cumulative instance indexing, so the output is identical for any
    worker count.  An exhaustive-grid sweep runs one task per orbit; if
    one faults, that pass stops and the sweep reruns unreduced, one task
    per multiset, so that every instance of a faulted sweep is verified
    and indexed on its own.
    """
    started = time.perf_counter()
    report = _merge(config, lambda: _build_tasks(config))
    if report is None:
        report = _merge(config, lambda: _multiset_tasks(config))
    report.wall_time = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Campaign text formats.


def _split_outside_brackets(s: str, what: str) -> list[str]:
    """The comma-separated items of s (commas inside [...] do not
    split); an empty item is an input error."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    parts = [p.strip() for p in parts]
    if not all(parts):
        raise InputError(f"campaign config: empty entry in {what} {s!r}")
    return parts


def _parse_span(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = parse_int(lo)
        b = parse_int(hi) if sep else a
    except InputError as exc:
        raise InputError(f"bad {what} range {text!r}: {exc}") from None
    return a, b


def parse_campaign_config(text: str) -> CampaignConfig:
    fields = parse_keyvals(text, "campaign config")
    if "mode" not in fields:
        raise InputError("campaign config: missing mode")
    kwargs: dict = {"mode": fields["mode"]}
    if "norms" in fields:
        kwargs["norms"] = tuple(
            parse_norm(part)
            for part in _split_outside_brackets(fields["norms"], "norms"))
    if "n" in fields:
        kwargs["n_min"], kwargs["n_max"] = _parse_span(fields["n"], "n")
    if "d" in fields:
        kwargs["d_min"], kwargs["d_max"] = _parse_span(fields["d"], "d")
    if "grid" in fields:
        kwargs["grid"] = tuple(parse_rational(part) for part in
                               _split_outside_brackets(fields["grid"], "grid"))
    for key in ("seed", "budget", "grid_denominator", "workers"):
        if key in fields:
            try:
                kwargs[key] = parse_int(fields[key])
            except InputError as exc:
                raise InputError(f"campaign config: bad {key}: {exc}") from None
    known = {"mode", "norms", "n", "d", "grid", "seed", "budget",
             "grid_denominator", "workers"}
    unknown = fields.keys() - known
    if unknown:
        raise InputError(
            f"campaign config: unknown keys {', '.join(sorted(unknown))}")
    return CampaignConfig(**kwargs)


def format_campaign_config(config: CampaignConfig) -> str:
    lines = [CONFIG_HEADER, f"mode = {config.mode}"]
    if config.norms:
        lines.append("norms = " + ", ".join(format_norm(nm)
                                            for nm in config.norms))
    lines += [f"n = {config.n_min}..{config.n_max}",
              f"d = {config.d_min}..{config.d_max}"]
    if config.grid:
        lines.append("grid = " + ", ".join(format_rational(q)
                                           for q in config.grid))
    lines += [f"seed = {config.seed}",
              f"budget = {config.budget}",
              f"grid_denominator = {config.grid_denominator}",
              f"workers = {config.workers}"]
    return "\n".join(lines) + "\n"


def format_campaign_report(report: CampaignReport) -> str:
    """Serialize a campaign report.

    Wall time and worker count are deliberately omitted: equal
    configurations must produce byte-identical report files.
    """
    lines = [
        CAMPAIGN_REPORT_HEADER,
        f"mode = {report.mode}",
        f"instances = {report.instances}",
        f"tight = {report.tight}",
        f"max_ratio = {format_rational(report.max_ratio)}",
        f"violations = {len(report.violations)}",
        f"errors = {len(report.errors)}",
        f"status = {report.status}",
    ]
    for i, violation in enumerate(report.violations, 1):
        lines += ["", f"[violation {i}]", f"index = {violation.index}"]
        lines += instance_lines(violation.instance)
        lines += report_lines(violation.report, n=violation.instance.n)
    for i, (index, message) in enumerate(report.errors, 1):
        lines += ["", f"[error {i}]", f"index = {index}",
                  f"message = {message}"]
    return "\n".join(lines) + "\n"

"""Instance generation and verification campaigns.

A campaign streams instances from one of four sources, verifies each
one, and aggregates a deterministic report:

* exhaustive-grid   - every multiset of unit-ball grid vectors, every
                      reachable sum as the target, verified on one
                      reduction.Chain per sign orbit (below);
* random            - seeded random instances on a rational grid, each
                      verified as a batch of one (verify_instance);
* extremal          - the tightness construction (n aligned copies of
                      x / (k + delta)), swept over k;
* uniform-kleitman  - seeded random l2 instances checked against the
                      k = 0 bound via the full distribution table.

Reports depend only on the configuration: work is split into tasks
whose partial results merge in task order, so the worker count changes
scheduling but never the report bytes.  Wall time is kept in memory
only and never serialized, for the same reason.  Per-instance failures
(capacity, perturbation search, infeasible sampling, a failed
certificate) are recorded in the report rather than aborting the stream.

The eps_i are symmetric, so negating some v_i leaves the law of the
sign sum unchanged, and along any witness it only negates projected
coefficients.  So the multisets of one sign orbit (every sign choice
that stays in the grid universe) share their sum table and, on every
target whose witness needs no perturbation, k and the whole chain.  An
exhaustive-grid task verifies one orbit: its representative, each
vector the larger of +-v when both lie in the universe, runs its chain
on every target, and each other member reruns on its own chain only
the targets where the representative was perturbed (the search tries
the v_i as directions, so it depends on the signs), failed its chain,
or raised.  Indices stay those of the per-multiset stream: the runner
resolves a block's (norm, d, n) record indices from the targets of its
orbits once the block has merged.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import (chain, combinations_with_replacement, groupby, islice,
                       product)
from multiprocessing import Pool
from typing import Iterator, Sequence

from .concentration import (EXHAUSTIVE_LIMIT, PROBE_LIMIT, max_atom,
                            reachable_sums_nd, scaled_sums)
from .errors import (CapacityError, CertificateError, InputError,
                     PerturbationError)
from .exactnum import (delta, format_rational, lo_bound, parse_int,
                       parse_rational)
from .norms import (L1, L2, LINF, NormSpec, RVector, ceil_norm_over,
                    format_norm, is_zero, parse_norm)
from .reduction import (Chain, Instance, VerificationReport, in_unit_ball,
                        instance_lines, parse_keyvals, report_lines,
                        verify_instance)

MODES = ("exhaustive-grid", "random", "extremal", "uniform-kleitman")

_BATCH = 64

CONFIG_HEADER = "# lo-campaign-config v1"
CAMPAIGN_REPORT_HEADER = "# lo-campaign-report v1"


@dataclass(frozen=True)
class CampaignConfig:
    mode: str
    norms: tuple[NormSpec, ...] = ()
    n_min: int = 1
    n_max: int = 4
    d_min: int = 2
    d_max: int = 2
    grid: tuple[Fraction, ...] = ()
    seed: int = 0
    budget: int = 0
    grid_denominator: int = 4
    workers: int = 1

    def __post_init__(self):
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


@dataclass(frozen=True)
class Violation:
    """A chain failure, kept replayable: index in the instance stream,
    the instance itself, and its verification report."""

    index: int
    instance: Instance
    report: VerificationReport


@dataclass
class CampaignReport:
    mode: str
    instances: int = 0
    tight: int = 0
    max_ratio: Fraction = Fraction(0)
    violations: list[Violation] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    # In-memory diagnostics only; serialized reports must be
    # byte-identical across runs and worker counts.
    wall_time: float = 0.0

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
    if n < 1 or d < 1:
        raise InputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    g = grid_denominator
    if g < 1:
        raise InputError(f"grid_denominator must be positive, got {g}")
    if norm.dimension not in (None, d):
        raise InputError(f"dimension mismatch: norm is on {norm.dimension} "
                         f"coordinates, vector has {d}")
    # Drawn as the integer numerators over g; ||a / g|| <= 1 exactly
    # when ceil(||a|| / g) <= 1.
    rng = random.Random(seed)
    draws: list[tuple[int, ...]] = []
    for _ in range(n):
        for _ in range(_VECTOR_RETRIES):
            a = tuple(rng.randint(-g, g) for _ in range(d))
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
        target = tuple(rng.randint(-g, g) for _ in range(d))
    return Instance(tuple(tuple(Fraction(c, g) for c in a) for a in draws),
                    tuple(Fraction(c, g) for c in target), norm)


def _derive_seed(seed: int, index: int) -> int:
    # Stable per-instance seed stream, independent of batching.
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _grid_universe(grid: Sequence[Fraction], d: int,
                   norm: NormSpec) -> list[RVector]:
    return [coords for coords in product(sorted(grid), repeat=d)
            if not is_zero(coords) and in_unit_ball(norm, coords)]


def _negated(v: RVector) -> RVector:
    return tuple(-c for c in v)


def _canonical(universe: list[RVector]) -> dict[RVector, RVector]:
    """Each universe vector's orbit representative: the larger of +-v
    when both lie in the universe, else v itself."""
    inside = set(universe)
    return {v: max(v, _negated(v)) if _negated(v) in inside else v
            for v in universe}


def _grid_blocks(config: CampaignConfig) -> Iterator[tuple]:
    """The (norm, n, universe, canonical, representatives) blocks of an
    exhaustive-grid sweep, in report order; representatives are the
    canonical vectors, in universe order."""
    for norm in config.norms:
        for d in range(config.d_min, config.d_max + 1):
            # Fixed-dimension norms (facet form) only apply to matching d.
            if norm.dimension not in (None, d):
                continue
            universe = _grid_universe(config.grid, d, norm)
            canonical = _canonical(universe)
            reps = [v for v in universe if canonical[v] == v]
            for n in range(config.n_min, config.n_max + 1):
                yield norm, n, universe, canonical, reps


def _orbit(rep: tuple[RVector, ...], mirrored: tuple[bool, ...]
           ) -> tuple[int, Iterator[tuple[RVector, ...]]]:
    """The size of rep's sign orbit and its multisets, made as they are
    read, each sorted as the stream lists it, rep first: every way to
    negate some copies of each mirrored vector (one whose negation lies
    in the universe)."""
    choices = []
    for (v, flips), copies in groupby(zip(rep, mirrored)):
        m = len(list(copies))
        choices.append([(v,) * (m - j) + (_negated(v),) * j
                        for j in range(m + 1 if flips else 1)])
    return math.prod(map(len, choices)), (
        tuple(sorted(chain.from_iterable(parts)))
        for parts in product(*choices))


@dataclass
class _TaskResult:
    count: int = 0
    tight: int = 0
    max_ratio: Fraction = Fraction(0)
    violations: list = field(default_factory=list)  # (local, Instance, report)
    errors: list = field(default_factory=list)      # (local, message)
    # Orbit tasks: the targets of each multiset; their locals are
    # (multiset, local) pairs.
    targets: int = 0


def _tally(res: _TaskResult, local: int, instance: Instance,
           report: VerificationReport) -> None:
    if not report.chain_holds:
        res.violations.append((local, instance, report))
    if report.tight:
        res.tight += 1
    if report.bound > 0:
        ratio = report.p_exact / report.bound
        if ratio > res.max_ratio:
            res.max_ratio = ratio


def _tally_counts(res: _TaskResult, count: int, allowed: int) -> None:
    """Tally a target whose chain held, in pattern counts over 2^n."""
    if count == allowed:
        res.tight += 1
    best = res.max_ratio
    # count / allowed > best, cross-multiplied (allowed >= count >= 1)
    if count * best.denominator > best.numerator * allowed:
        res.max_ratio = Fraction(count, allowed)


_RECORDED_FAILURES = (InputError, CapacityError, PerturbationError,
                      CertificateError)


def _check_target(res: _TaskResult, chain: Chain, norm: NormSpec,
                  vectors: tuple[RVector, ...], local: int,
                  u: tuple[int, ...], count: int) -> int | None:
    """Verify the target u of one multiset on its chain; count is its
    p_exact in patterns.  Return the allowed count when the chain held on
    the unperturbed witness, which every member of the orbit shares, for
    the caller to tally.  Otherwise tally the target into res and return
    None; a failed chain is rerun by verify_instance for its violation
    record."""
    try:
        projected, allowed, perturbed = chain.counts(u)
        if not count <= projected <= allowed:
            x = tuple(Fraction(c, chain.den) for c in u)
            instance = Instance(vectors, x, norm)
            _tally(res, local, instance, verify_instance(instance))
        elif perturbed:
            _tally_counts(res, count, allowed)
        else:
            return allowed
    except _RECORDED_FAILURES as exc:
        res.errors.append((local, str(exc)))
    return None


def _sweep_chain(norm: NormSpec, vectors: tuple[RVector, ...]) -> Chain:
    """The chain of one multiset of a sweep, validated as an instance
    with target 0."""
    return Chain(Instance(vectors, (Fraction(0),) * len(vectors[0]), norm))


def _rerun(norm: NormSpec, vectors: tuple[RVector, ...],
           targets: list[tuple]) -> _TaskResult:
    """The (local, u, count) targets of one multiset on its own chain."""
    res = _TaskResult(count=len(targets))
    try:
        chain = _sweep_chain(norm, vectors)
    except InputError as exc:
        res.errors = [(local, str(exc)) for local, _, _ in targets]
        return res
    for local, u, count in targets:
        allowed = _check_target(res, chain, norm, vectors, local, u, count)
        if allowed is not None:
            _tally_counts(res, count, allowed)
    return res


def _task_orbit(norm: NormSpec, rep: tuple[RVector, ...],
                mirrored: tuple[bool, ...]) -> _TaskResult:
    """Verify every reachable target of every multiset in the sign orbit
    of rep (see the module docstring).  rep's chain runs every target in
    pattern counts over 2^n, p_exact read off the sum table of its scaled
    vectors, which lives only as long as this task; the other members
    rerun only the targets rep could not share."""
    size, members = _orbit(rep, mirrored)
    shared = _TaskResult()
    try:
        rep_chain = _sweep_chain(norm, rep)
    except InputError:
        # Only outside a sweep: the grid universe holds valid vectors.
        rerun = [(local, None, None)
                 for local in range(len(reachable_sums_nd(rep)))]
        parts = [(m, _rerun(norm, m, rerun)) for m in members]
    else:
        own, rerun = _TaskResult(), []
        for local, (u, count) in enumerate(scaled_sums(rep_chain.scaled)):
            allowed = _check_target(own, rep_chain, norm, rep, local, u, count)
            if allowed is None:
                rerun.append((local, u, count))
            else:
                shared.count += 1
                _tally_counts(shared, count, allowed)
        own.count = len(rerun)
        parts = [(rep, own)]
        if rerun:
            parts += [(m, _rerun(norm, m, rerun))
                      for m in islice(members, 1, None)]
    res = _TaskResult(count=size * shared.count, tight=size * shared.tight,
                      max_ratio=shared.max_ratio,
                      targets=shared.count + len(rerun))
    for member, part in parts:
        res.count += part.count
        res.tight += part.tight
        res.max_ratio = max(res.max_ratio, part.max_ratio)
        res.violations += [((member, local), instance, report)
                           for local, instance, report in part.violations]
        res.errors += [((member, local), message)
                       for local, message in part.errors]
    return res


def _task_random(cfg: CampaignConfig, start: int, count: int) -> _TaskResult:
    res = _TaskResult()
    for local in range(count):
        rng = random.Random(_derive_seed(cfg.seed, start + local))
        n = rng.randint(cfg.n_min, cfg.n_max)
        d = rng.randint(cfg.d_min, cfg.d_max)
        # Fixed-dimension norms (facet form) only apply to matching d.
        fits = [nm for nm in cfg.norms if nm.dimension in (None, d)]
        norm = fits[rng.randrange(len(fits))] if fits else None
        sub_seed = rng.getrandbits(64)
        res.count += 1
        try:
            if norm is None:
                raise InputError(f"no configured norm fits dimension {d}")
            instance = gen_random(sub_seed, n, d, norm, cfg.grid_denominator)
            _tally(res, local, instance, verify_instance(instance))
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def _task_extremal(norm: NormSpec, n: int) -> _TaskResult:
    res = _TaskResult()
    for k in range(1, n + 1):
        for value in (Fraction(k), Fraction(k) - Fraction(1, 2)):
            local = res.count
            res.count += 1
            try:
                instance = gen_extremal(n, norm, value)
                _tally(res, local, instance, verify_instance(instance))
            except _RECORDED_FAILURES as exc:
                res.errors.append((local, str(exc)))
    return res


def _task_uniform(cfg: CampaignConfig, start: int, count: int) -> _TaskResult:
    l2 = NormSpec.l2()
    res = _TaskResult()
    for local in range(count):
        rng = random.Random(_derive_seed(cfg.seed, start + local))
        n = rng.randint(cfg.n_min, cfg.n_max)
        d = rng.randint(cfg.d_min, cfg.d_max)
        sub_seed = rng.getrandbits(64)
        res.count += 1
        try:
            drawn = gen_random(sub_seed, n, d, l2, cfg.grid_denominator)
            target, p = max_atom(drawn.vectors)
            bound = lo_bound(n, 0)
            report = VerificationReport(
                p_exact=p, p_projected=p, bound=bound, k=0,
                delta=delta(n, 0), chain_holds=p <= bound,
                tight=p == bound, perturbed=False)
            _tally(res, local, Instance(drawn.vectors, target, l2), report)
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def _run_task(task: tuple) -> _TaskResult:
    return task[0](*task[1:])


def _build_tasks(config: CampaignConfig) -> Iterator[tuple]:
    """The campaign's tasks in report order, one at a time."""
    if config.mode == "exhaustive-grid":
        # One task per sign orbit, its canonical multiset as representative.
        for norm, n, _, canonical, reps in _grid_blocks(config):
            mirrored = {v: _negated(v) in canonical for v in reps}
            for rep in combinations_with_replacement(reps, n):
                yield (_task_orbit, norm, rep,
                       tuple(mirrored[v] for v in rep))
    elif config.mode == "extremal":
        for norm in config.norms:
            for n in range(config.n_min, config.n_max + 1):
                yield _task_extremal, norm, n
    else:
        task = _task_random if config.mode == "random" else _task_uniform
        for start in range(0, config.budget, _BATCH):
            yield task, config, start, min(_BATCH, config.budget - start)


class _StreamIndex:
    """Record indices of an exhaustive-grid sweep, as the per-multiset
    stream numbers them: every multiset of a (norm, d, n) block in
    combinations_with_replacement order, each with its reachable targets.

    Orbit tasks merge in canonical order, and a multiset's target count
    is its representative's.  So the runner keeps one target count per
    orbit of the current block, and once the block's last orbit merged it
    walks that block's stream once, if the block has records at all."""

    def __init__(self, config: CampaignConfig):
        self._blocks = _grid_blocks(config)
        self._left = 0
        self._violations: list = []
        self._errors: list = []

    def add(self, report: CampaignReport, part: _TaskResult,
            offset: int) -> None:
        """Merge the records of the orbit task part; offset counts the
        instances merged before it."""
        while not self._left:
            self.flush(report)
            self._block = next(self._blocks)
            _, n, _, _, reps = self._block
            self._left = math.comb(len(reps) + n - 1, n)
            self._start, self._targets = offset, array("q")
        self._left -= 1
        self._targets.append(part.targets)
        self._violations += part.violations
        self._errors += part.errors

    def flush(self, report: CampaignReport) -> None:
        """Append the current block's records with their stream indices."""
        if not (self._violations or self._errors):
            return
        _, n, universe, canonical, reps = self._block
        targets = dict(zip(combinations_with_replacement(reps, n),
                           self._targets))
        wanted = {key[0] for key, *_ in self._violations + self._errors}
        starts, offset = {}, self._start
        for combo in combinations_with_replacement(universe, n):
            if combo in wanted:
                starts[combo] = offset
                if len(starts) == len(wanted):
                    break
            offset += targets[tuple(sorted(canonical[v] for v in combo))]
        report.violations += sorted(
            (Violation(starts[member] + local, instance, vrep)
             for (member, local), instance, vrep in self._violations),
            key=lambda violation: violation.index)
        report.errors += sorted((starts[member] + local, message)
                                for (member, local), message in self._errors)
        self._violations, self._errors = [], []


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured campaign and aggregate its report.

    Tasks are generated as they run and merge in task order with
    cumulative instance indexing (for exhaustive-grid, the indices of the
    per-multiset stream), so the output is identical for any worker
    count.  The pool never has more processes than tasks or cores.
    """
    started = time.perf_counter()
    tasks = _build_tasks(config)
    # The first tasks, at most one per process, size the pool.
    head = list(islice(tasks, min(config.workers, os.cpu_count() or 1)))
    report = CampaignReport(mode=config.mode)
    sweep = (_StreamIndex(config) if config.mode == "exhaustive-grid"
             else None)
    # A random or uniform-kleitman task is already a batch of _BATCH
    # instances, so those go out one at a time and split evenly; the many
    # small orbit and extremal tasks go out in chunks.
    chunksize = 1 if config.mode in ("random", "uniform-kleitman") else 8
    with Pool(len(head)) if len(head) > 1 else nullcontext() as pool:
        tasks = chain(head, tasks)
        partials = (pool.imap(_run_task, tasks, chunksize=chunksize) if pool
                    else map(_run_task, tasks))
        for part in partials:
            offset = report.instances
            report.instances += part.count
            report.tight += part.tight
            if part.max_ratio > report.max_ratio:
                report.max_ratio = part.max_ratio
            if sweep:
                sweep.add(report, part, offset)
                continue
            for local, instance, vrep in part.violations:
                report.violations.append(
                    Violation(offset + local, instance, vrep))
            for local, message in part.errors:
                report.errors.append((offset + local, message))
    if sweep:
        sweep.flush(report)
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
    except InputError:
        raise InputError(f"bad {what} range {text!r}") from None
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
            except InputError:
                raise InputError(
                    f"campaign config: bad {key} {fields[key]!r}") from None
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

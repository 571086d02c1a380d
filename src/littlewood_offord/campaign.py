"""Instance generation and verification campaigns.

A campaign streams instances from one of four sources, verifies each
one, and aggregates a deterministic report:

* exhaustive-grid   - every multiset of unit-ball grid vectors, every
                      reachable sum as the target, verified on one
                      reduction.Chain per multiset;
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
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
from multiprocessing import Pool
from typing import Sequence

# perfbench/tracer.py wraps campaign.reachable_sums_nd, so the name stays.
from .concentration import (EXHAUSTIVE_LIMIT, PROBE_LIMIT, max_atom,
                            reachable_sums_nd, scaled_sums)  # noqa: F401
from .errors import (CapacityError, CertificateError, InputError,
                     PerturbationError)
from .exactnum import (delta, format_rational, lo_bound, parse_int,
                       parse_rational)
from .norms import (L1, L2, LINF, NormSpec, RVector, format_norm, is_zero,
                    parse_norm)
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
    rng = random.Random(seed)
    vectors: list[RVector] = []
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


def _derive_seed(seed: int, index: int) -> int:
    # Stable per-instance seed stream, independent of batching.
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _grid_universe(grid: Sequence[Fraction], d: int,
                   norm: NormSpec) -> list[RVector]:
    pts: list[RVector] = []
    for coords in product(sorted(grid), repeat=d):
        if is_zero(coords):
            continue
        if in_unit_ball(norm, coords):
            pts.append(coords)
    return pts


@dataclass
class _TaskResult:
    count: int = 0
    tight: int = 0
    max_ratio: Fraction = Fraction(0)
    violations: list = field(default_factory=list)  # (local index, Instance, report)
    errors: list = field(default_factory=list)      # (local index, message)


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


_RECORDED_FAILURES = (InputError, CapacityError, PerturbationError,
                      CertificateError)

_ACTIVE_CONFIG: CampaignConfig | None = None


def _set_active_config(config: CampaignConfig) -> None:
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = config


def _task_exhaustive(norm: NormSpec, vectors: tuple[RVector, ...]) -> _TaskResult:
    """Verify every reachable target of one vector multiset on one chain,
    in pattern counts over 2^n; p_exact is a count in the sum table.  A
    failed chain is rerun by verify_instance for its violation record."""
    res = _TaskResult()
    sums = scaled_sums(vectors)
    try:
        chain = Chain(vectors, norm)
    except InputError as exc:
        res.count = len(sums)
        res.errors = [(local, str(exc)) for local in range(len(sums))]
        return res
    for local, (u, count) in enumerate(sums):
        res.count += 1
        try:
            projected, allowed = chain.counts(u)
            if not count <= projected <= allowed:
                x = tuple(Fraction(c, chain.den) for c in u)
                instance = Instance(vectors, x, norm)
                _tally(res, local, instance, verify_instance(instance))
                continue
            if count == allowed:
                res.tight += 1
            best = res.max_ratio
            # count / allowed > best, cross-multiplied (allowed >= count >= 1)
            if count * best.denominator > best.numerator * allowed:
                res.max_ratio = Fraction(count, allowed)
        except _RECORDED_FAILURES as exc:
            res.errors.append((local, str(exc)))
    return res


def _task_random(start: int, count: int) -> _TaskResult:
    cfg = _ACTIVE_CONFIG
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


def _task_uniform(start: int, count: int) -> _TaskResult:
    cfg = _ACTIVE_CONFIG
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
    kind = task[0]
    if kind == "exhaustive":
        return _task_exhaustive(task[1], task[2])
    if kind == "random":
        return _task_random(task[1], task[2])
    if kind == "extremal":
        return _task_extremal(task[1], task[2])
    return _task_uniform(task[1], task[2])


def _build_tasks(config: CampaignConfig) -> list[tuple]:
    tasks: list[tuple] = []
    if config.mode == "exhaustive-grid":
        for norm in config.norms:
            for d in range(config.d_min, config.d_max + 1):
                # Fixed-dimension norms (facet form) only apply to matching d.
                if norm.dimension not in (None, d):
                    continue
                universe = _grid_universe(config.grid, d, norm)
                for n in range(config.n_min, config.n_max + 1):
                    for combo in combinations_with_replacement(universe, n):
                        tasks.append(("exhaustive", norm, combo))
    elif config.mode == "extremal":
        for norm in config.norms:
            for n in range(config.n_min, config.n_max + 1):
                tasks.append(("extremal", norm, n))
    else:
        kind = "random" if config.mode == "random" else "uniform"
        for start in range(0, config.budget, _BATCH):
            tasks.append((kind, start, min(_BATCH, config.budget - start)))
    return tasks


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured campaign and aggregate its report.

    Partial results merge in task order with cumulative instance
    indexing, so the output is identical for any worker count.  The
    pool never has more processes than tasks or cores.
    """
    started = time.perf_counter()
    tasks = _build_tasks(config)
    _set_active_config(config)
    workers = min(config.workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers, initializer=_set_active_config,
                  initargs=(config,)) as pool:
            partials = list(pool.imap(_run_task, tasks, chunksize=8))
    else:
        partials = [_run_task(t) for t in tasks]
    report = CampaignReport(mode=config.mode)
    offset = 0
    for part in partials:
        report.instances += part.count
        report.tight += part.tight
        if part.max_ratio > report.max_ratio:
            report.max_ratio = part.max_ratio
        for local, instance, vrep in part.violations:
            report.violations.append(Violation(offset + local, instance, vrep))
        for local, message in part.errors:
            report.errors.append((offset + local, message))
        offset += part.count
    report.wall_time = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# Campaign text formats.


def _split_outside_brackets(s: str) -> list[str]:
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
    return [p.strip() for p in parts if p.strip()]


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
        kwargs["norms"] = tuple(parse_norm(part) for part in
                                _split_outside_brackets(fields["norms"]))
    if "n" in fields:
        kwargs["n_min"], kwargs["n_max"] = _parse_span(fields["n"], "n")
    if "d" in fields:
        kwargs["d_min"], kwargs["d_max"] = _parse_span(fields["d"], "d")
    if "grid" in fields:
        kwargs["grid"] = tuple(parse_rational(part) for part in
                               _split_outside_brackets(fields["grid"]))
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

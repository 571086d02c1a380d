"""End-to-end benchmark of the certification pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (perfbench/NOTES.md says why each was chosen):

* grid-planar - an exhaustive-grid campaign over the planar grid
  -1, -1/2, 1/2, 1 with norms l1, l2, linf and poly:[1,0;0,1;1,1],
  one worker, repeated while the run lasts;
* random-deep - seeded random campaigns, n 1..14, d 1..3, two workers;
* verify-cli  - a closed loop of one client, each request a fresh
  `python -m littlewood_offord.cli verify FILE` process on a seeded
  instance with n 26..44 (the meet-in-the-middle range).

The program is run from `src/` of the checkout and sees only the
config and instance files generated here from `--seed`.  Every output
is checked: campaign reports against an instance count (and, for the
grid, a tight count) computed independently here, verify reports
against an independently computed norm ceiling and bound.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
With `--trace 1` the same untraced run is followed by a traced
repetition of its first operation(s) at one worker; the last line then
holds the per-layer metrics.  The line before the last holds details:
machine, report hashes, per-operation times and any problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 1
# Kept out of every tuning run; a later claim of a gain is checked on it.
HELDOUT_SEED = 8191

OP_TIMEOUT_S = 150
# The measuring loop stops here whatever the run length asks, so that a
# run ends within its time limit even on a much slower program.
MAX_LOOP_S = 100

PLANAR_GRID = ("-1", "-1/2", "1/2", "1")
CAMPAIGN_NORMS = ("l1", "l2", "linf", "poly:[1,0;0,1;1,1]")
VERIFY_NORMS = ("l1", "l2", "linf")
RANDOM_WORKERS = 2


@dataclass(frozen=True)
class Size:
    grid_n_max: int
    random_budget: int
    random_n_max: int
    # (d, n) of each request in one verify-cli cycle.  Every cycle has
    # the same cells, so seeds change the vectors but not the mix.
    verify_cells: tuple[tuple[int, int], ...]
    verify_cycles: int
    min_requests: int
    traced_requests: int
    setup_repeats: int


SIZES = {
    "full": Size(
        # Random n stops at 14: above it the few d = 3 draws with large n
        # take most of a campaign's time, and their binomial count makes
        # runs spread by 20%.
        grid_n_max=4, random_budget=640, random_n_max=14,
        # Seven planar requests over the whole n range and three 3-d ones
        # kept to n <= 32, so that 100 requests fit in a run; the 3-d
        # requests are the slow tail the p90 reads.
        verify_cells=((2, 26), (2, 29), (2, 32), (2, 35), (2, 38), (2, 41),
                      (2, 44), (3, 26), (3, 29), (3, 32)),
        verify_cycles=12, min_requests=100, traced_requests=20,
        setup_repeats=11),
    "tiny": Size(
        grid_n_max=2, random_budget=12, random_n_max=6,
        verify_cells=((2, 6), (3, 8)), verify_cycles=2, min_requests=4,
        traced_requests=2, setup_repeats=2),
}


# ----------------------------------------------------------------------
# Independent arithmetic for the checks: norms, ceilings and bounds,
# written against the README's definitions, not the package.


def norm_ceil(norm: str, x) -> int:
    """Exact ceil(||x||) for l1, l2, linf and poly:[1,0;0,1;1,1]."""
    if norm == "l2":
        q = sum(c * c for c in x)
        t = math.isqrt(q.numerator // q.denominator)
        while t * t < q:
            t += 1
        return t
    if norm == "l1":
        value = sum(abs(c) for c in x)
    elif norm == "linf":
        value = max(abs(c) for c in x)
    else:
        value = max(abs(x[0]), abs(x[1]), abs(x[0] + x[1]))
    return math.ceil(value)


def in_unit_ball(norm: str, x) -> bool:
    if norm == "l2":
        return sum(c * c for c in x) <= 1
    return norm_ceil(norm, x) <= 1


def tight_count(n: int, k: int) -> int:
    """Sign patterns at the bound: C(n, ceil((n + k) / 2))."""
    return math.comb(n, (n + k + 1) // 2)


def grid_expectation(norms, n_max: int) -> tuple[int, int]:
    """(instances, tight) of a planar exhaustive-grid campaign: every
    multiset of nonzero unit-ball grid points, every reachable sum."""
    grid = [Fraction(g) for g in PLANAR_GRID]
    scale = 2  # every grid point is on the half-integer lattice
    instances = tight = 0
    for norm in norms:
        universe = [p for p in product(grid, repeat=2)
                    if any(p) and in_unit_ball(norm, p)]
        ceilings: dict[tuple[int, int], int] = {}
        for n in range(1, n_max + 1):
            for combo in combinations_with_replacement(universe, n):
                table = Counter({(0, 0): 1})
                for v in combo:
                    a, b = int(v[0] * scale), int(v[1] * scale)
                    nxt: Counter = Counter()
                    for (x, y), c in table.items():
                        nxt[x + a, y + b] += c
                        nxt[x - a, y - b] += c
                    table = nxt
                for s, c in table.items():
                    k = ceilings.get(s)
                    if k is None:
                        k = ceilings[s] = norm_ceil(
                            norm, (Fraction(s[0], scale), Fraction(s[1], scale)))
                    instances += 1
                    tight += c == tight_count(n, k)
    return instances, tight


def header_fields(text: str) -> dict[str, str]:
    """`key = value` pairs up to the first blank line (campaign reports
    put per-violation blocks after it)."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            break
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#"):
            fields.setdefault(key.strip(), value.strip())
    return fields


def check_campaign_report(text: str, expected: dict[str, str]) -> tuple[int, list[str]]:
    """(errors the report counts, problems).  `expected` maps header
    keys to their required values.  An error block is an instance the
    program could not verify and said so: it counts as a failed
    operation, not as a wrong answer."""
    fields = header_fields(text)
    problems = [] if text.startswith("# lo-campaign-report ") else [
        "campaign report header missing"]
    problems += [f"{key} = {fields.get(key)!r}, expected {want!r}"
                 for key, want in expected.items() if fields.get(key) != want]
    try:
        errors = int(fields["errors"])
    except (KeyError, ValueError):
        errors = 0
        problems.append("campaign report has no error count")
    return errors, problems


def check_verify_report(text: str, expected: dict) -> tuple[int, list[str]]:
    """(0 or 1 failed, problems) for one `lo verify` report."""
    fields = header_fields(text)
    if not text.startswith("# lo-report "):
        return 1, ["verify report header missing"]
    problems = [f"{key} echoed as {fields.get(key)!r}"
                for key in ("dimension", "norm", "vectors", "target")
                if fields.get(key) != expected[key]]
    n, k = expected["n"], expected["k"]
    try:
        p_exact = Fraction(fields["p_exact"])
        p_projected = Fraction(fields["p_projected"])
        bound = Fraction(fields["bound"])
        got_n, got_k = int(fields["n"]), int(fields["k"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return 1, problems + [f"unreadable verify report: {exc!r}"]
    if (got_n, got_k) != (n, k):
        problems.append(f"n, k = {got_n}, {got_k}, expected {n}, {k}")
    if bound != Fraction(tight_count(n, k), 2 ** n):
        problems.append(f"bound = {bound}, expected C({n}, ceil(({n}+{k})/2))/2^{n}")
    if fields.get("chain_holds") != "true":
        problems.append("chain_holds is not true")
    # The target is a signed sum of the vectors, so it is hit at least once.
    if not Fraction(1, 2 ** n) <= p_exact <= p_projected <= bound:
        problems.append(f"chain 2^-n <= {p_exact} <= {p_projected} <= {bound} fails")
    return (1 if problems else 0), problems


# ----------------------------------------------------------------------
# Workloads.


@dataclass
class Op:
    """One `lo` invocation and how to judge its output."""

    lo_args: list[str]
    instances: int
    check: Callable[[str], tuple[int, list[str]]]
    report: Path | None = None  # None: the report is on stdout


@dataclass
class OpResult:
    lo_args: tuple[str, ...]
    wall: float
    cpu: float
    attempted: int
    failed: int
    problems: list[str]
    text: str  # the report
    spans: Path | None = None
    spawned: float = 0.0

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


class Workload:
    """Seeded inputs of one workload, its operations and stop rule."""

    workers = 1
    traced_ops = 1

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir

    def inputs(self) -> list[Path]:
        """Files the setup probe parses."""
        raise NotImplementedError

    def op(self, i: int, workers: int | None = None) -> Op:
        raise NotImplementedError

    def more(self, results: list[OpResult], elapsed: float, seconds: int) -> bool:
        """Campaigns: start another only if it should end in time."""
        return elapsed + results[-1].wall <= seconds

    def report_sha256(self, results: list[OpResult]) -> str:
        """Hash of the reports every run of this seed produces."""
        return results[0].sha256

    def _campaign_op(self, config: Path, instances: int,
                     expected: dict[str, str], workers: int | None) -> Op:
        report = config.with_suffix(".report")
        args = ["campaign", str(config), "--out", str(report)]
        if workers is not None:
            args += ["--workers", str(workers)]
        return Op(args, instances,
                  lambda text: check_campaign_report(text, expected), report)


class GridPlanar(Workload):
    """The planar grid sweep of the acceptance gate, cut at n <= 4.  The
    sweep has no randomness; the seed only permutes the norm order in
    the config, which reorders tasks but leaves the work unchanged."""

    name = "grid-planar"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        norms = list(CAMPAIGN_NORMS)
        random.Random(seed).shuffle(norms)
        self.config = workdir / "grid-planar.cfg"
        self.config.write_text("\n".join([
            "# lo-campaign-config v1",
            "mode = exhaustive-grid",
            "norms = " + ", ".join(norms),
            f"n = 1..{size.grid_n_max}",
            "d = 2",
            "grid = " + ", ".join(PLANAR_GRID),
            "workers = 1",
        ]) + "\n")
        self.instances, tight = grid_expectation(norms, size.grid_n_max)
        self.expected = {"instances": str(self.instances), "tight": str(tight),
                         "violations": "0"}

    def inputs(self):
        return [self.config]

    def op(self, i, workers=None):
        return self._campaign_op(self.config, self.instances, self.expected,
                                 workers)


class RandomDeep(Workload):
    """Seeded random campaigns; operation i uses its own campaign seed
    drawn from the benchmark seed."""

    name = "random-deep"
    workers = RANDOM_WORKERS

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.rng = random.Random(seed)
        self.configs: list[Path] = []
        self.expected = {"instances": str(size.random_budget),
                         "violations": "0"}

    def _config(self, i: int) -> Path:
        while len(self.configs) <= i:
            path = self.workdir / f"random-deep-{len(self.configs)}.cfg"
            path.write_text("\n".join([
                "# lo-campaign-config v1",
                "mode = random",
                "norms = " + ", ".join(CAMPAIGN_NORMS),
                f"n = 1..{self.size.random_n_max}",
                "d = 1..3",
                f"seed = {self.rng.getrandbits(32)}",
                f"budget = {self.size.random_budget}",
                "grid_denominator = 4",
                f"workers = {RANDOM_WORKERS}",
            ]) + "\n")
            self.configs.append(path)
        return self.configs[i]

    def inputs(self):
        return [self._config(0)]

    def op(self, i, workers=None):
        return self._campaign_op(self._config(i), self.size.random_budget,
                                 self.expected, workers)


class VerifyCli(Workload):
    """A closed loop of one client over seeded instance files."""

    name = "verify-cli"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        rng = random.Random(seed)
        self.traced_ops = size.traced_requests
        self.files: list[Path] = []
        self.expected: list[dict] = []
        for cycle in range(size.verify_cycles):
            for j, (d, n) in enumerate(size.verify_cells):
                norm = VERIFY_NORMS[(cycle + j) % len(VERIFY_NORMS)]
                path = workdir / f"verify-{len(self.files):03d}.instance"
                text, expected = self._instance(rng, n, d, norm)
                path.write_text(text)
                self.files.append(path)
                self.expected.append(expected)

    @staticmethod
    def _instance(rng: random.Random, n: int, d: int, norm: str) -> tuple[str, dict]:
        """Vectors on the 1/8 grid inside the unit ball; the target is a
        signed sum of them, so its atom probability is positive."""
        vectors = []
        while len(vectors) < n:
            v = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(d))
            if any(v) and in_unit_ball(norm, v):
                vectors.append(v)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        target = tuple(sum(s * v[j] for s, v in zip(signs, vectors))
                       for j in range(d))
        expected = {
            "dimension": str(d), "norm": norm,
            "vectors": "; ".join(",".join(map(str, v)) for v in vectors),
            "target": ",".join(map(str, target)),
            "n": n, "k": norm_ceil(norm, target),
        }
        text = "# lo-instance v1\n" + "".join(
            f"{key} = {expected[key]}\n"
            for key in ("dimension", "norm", "vectors", "target"))
        return text, expected

    def inputs(self):
        return self.files

    def op(self, i, workers=None):
        expected = self.expected[i % len(self.files)]
        return Op(["verify", str(self.files[i % len(self.files)])], 1,
                  lambda text: check_verify_report(text, expected))

    def more(self, results, elapsed, seconds):
        count = len(results)
        return (elapsed < seconds or count < self.size.min_requests
                or count % len(self.size.verify_cells) != 0)

    def report_sha256(self, results):
        digest = hashlib.sha256()
        for r in results[:self.size.min_requests]:
            digest.update(bytes.fromhex(r.sha256))
        return digest.hexdigest()


WORKLOADS = {w.name: w for w in (GridPlanar, RandomDeep, VerifyCli)}


# ----------------------------------------------------------------------
# Processes.


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str]) -> tuple[int, str, str]:
    """Run a child in its own process group and wait for it.  On a
    timeout or an interrupt the whole group (campaign pool workers
    included) is killed and reaped."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                return -signal.SIGKILL, "", f"timed out after {OP_TIMEOUT_S} s"
            raise
    return proc.returncode, out, err


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_op(op: Op, workdir: Path, traced: bool = False) -> OpResult:
    if op.report is not None:
        op.report.unlink(missing_ok=True)
    spans = None
    argv = [sys.executable, "-m", "littlewood_offord.cli", *op.lo_args]
    if traced:
        fd, name = tempfile.mkstemp(suffix=".spans", dir=workdir)
        os.close(fd)
        spans = Path(name)
        argv = [sys.executable, str(TRACER), str(spans), "--", *op.lo_args]
    cpu0 = children_cpu()
    spawned = time.monotonic()
    t0 = time.perf_counter()
    code, out, err = spawn(argv)
    wall = time.perf_counter() - t0
    cpu = children_cpu() - cpu0
    text = out
    if op.report is not None:
        text = op.report.read_text() if op.report.exists() else ""
    if text:
        failed, problems = op.check(text)
    else:
        failed = op.instances
        problems = [f"lo {' '.join(op.lo_args)}: exit {code}, no report: "
                    f"{err.strip()[-300:]}"]
    return OpResult(tuple(op.lo_args), wall, cpu, op.instances, failed,
                    problems, text, spans, spawned)


SETUP_CODE = """\
import sys
from pathlib import Path
import littlewood_offord as lo
for path in sys.argv[1:]:
    text = Path(path).read_text()
    if text.startswith("# lo-campaign-config"):
        lo.parse_campaign_config(text)
    else:
        lo.parse_instance(text)
"""


def time_setup(files: list[Path]) -> tuple[float, list[str]]:
    """Wall time of a fresh interpreter that imports the package and
    parses the workload's input files."""
    t0 = time.perf_counter()
    code, _, err = spawn([sys.executable, "-c", SETUP_CODE, *map(str, files)])
    wall = time.perf_counter() - t0
    return wall, [] if code == 0 else [f"setup probe: exit {code}: {err.strip()[-300:]}"]


# ----------------------------------------------------------------------
# Metrics.


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it has reaped
    (Linux reports KiB; a child's figure covers its own children)."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def end_to_end_metrics(results: list[OpResult], setup: list[float]) -> dict[str, float]:
    walls = [r.wall for r in results]
    attempted = sum(r.attempted for r in results)
    return {
        "instances_per_s": attempted / sum(walls),
        "req_p50_ms": percentile(walls, 0.5) * 1000,
        "req_p90_ms": percentile(walls, 0.9) * 1000,
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": statistics.median(setup),
        "ok_frac": 1 - sum(r.failed for r in results) / attempted,
    }


def load_spans(traced: list[OpResult]) -> list[tuple[OpResult, tuple]]:
    """Span files of the traced operations; one a killed process left
    empty is skipped (its operation already counts as failed)."""
    loaded = []
    for r in traced:
        try:
            loaded.append((r, tracer.load(str(r.spans))))
        except (OSError, ValueError, EOFError):
            continue
    return loaded


def layer_metrics(loaded: list[tuple[OpResult, tuple]], busy_frac: float,
                  overhead_s: float) -> dict[str, float]:
    summaries, startups = [], []
    caches = {stat: [0, 0] for stat in tracer.CACHES}
    for r, (header, *arrays) in loaded:
        summaries.append(tracer.summarize(header["names"], *arrays))
        startups.append((header["main_entered"] - r.spawned) * 1000)
        for stat, (hits, misses) in header["caches"].items():
            caches[stat][0] += hits
            caches[stat][1] += misses
    spans = tracer.merge(summaries)

    def get(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def hit_ratio(stat: str) -> float:
        hits, misses = caches[stat]
        return ratio(hits, hits + misses)

    return {
        "reduction.project.s": get("reduction.project"),
        "reduction.project.self_s": get("reduction.project", "self_s"),
        "reduction.Instance.s": get("reduction.Instance"),
        "reduction.verify_instance.s": get("reduction.verify_instance"),
        "reduction.verify_instance.self_s": get("reduction.verify_instance", "self_s"),
        "reduction.perturb_witness.calls": get("reduction.perturb_witness", "calls"),
        "reduction.perturb_witness.s": get("reduction.perturb_witness"),
        "reduction.perturbed_frac": ratio(get("reduction.perturb_witness", "calls"),
                                          get("reduction.project", "calls")),
        "reduction.parse_instance.s": get("reduction.parse_instance"),
        "reduction.format_report.s": get("reduction.format_report"),
        "norms.dual_witness.calls": get("norms.dual_witness", "calls"),
        "norms.dual_witness.s": get("norms.dual_witness"),
        "norms.ceil_norm.calls": get("norms.ceil_norm", "calls"),
        "norms.ceil_norm.s": get("norms.ceil_norm"),
        "norms.in_unit_ball.hit_ratio": hit_ratio("norms.in_unit_ball"),
        "concentration.atom_nd.calls": get("concentration.atom_nd", "calls"),
        "concentration.atom_nd.s": get("concentration.atom_nd"),
        "concentration.atom_1d.calls": get("concentration.atom_1d", "calls"),
        "concentration.atom_1d.s": get("concentration.atom_1d"),
        "concentration.reachable_sums_nd.s": get("concentration.reachable_sums_nd"),
        "concentration.table_hit_ratio": hit_ratio("concentration.table"),
        "exactnum.lo_bound.s": get("exactnum.lo_bound"),
        "exactnum.sqrt_ceil.s": get("exactnum.ceil_sqrt") + get("exactnum.floor_sqrt"),
        "campaign.run_campaign.s": get("campaign.run_campaign"),
        "campaign.run_self_s": get("campaign.run_campaign", "self_s"),
        "campaign.gen_random.s": get("campaign.gen_random"),
        "campaign.worker_busy_frac": busy_frac,
        "cli.startup_ms": statistics.median(startups) if startups else 0.0,
        "cli.main.s": get("cli.main"),
        "trace.overhead_s": overhead_s,
    }


END_TO_END_UNITS = {"instances_per_s": "1/s", "req_p50_ms": "ms",
                    "req_p90_ms": "ms", "peak_rss_mib": "MiB",
                    "setup_s": "s", "ok_frac": "ratio"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith((".s", "_s")):
        return "s"
    return "ratio"


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "littlewood_offord").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "cpu_model": model, "commit": commit, "src_sha256": digest.hexdigest()}


# ----------------------------------------------------------------------


def measure(workload: Workload, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, details line)."""
    problems: list[str] = []
    setup = []
    for _ in range(workload.size.setup_repeats):
        wall, found = time_setup(workload.inputs())
        setup.append(wall)
        problems += found

    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        results.append(run_op(workload.op(len(results)), workload.workdir))
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or not workload.more(results, elapsed, seconds):
            break
    reports: dict[tuple[str, ...], set[str]] = {}
    for r in results:
        reports.setdefault(r.lo_args, set()).add(r.sha256)
    if any(len(shas) > 1 for shas in reports.values()):
        problems.append("one input gave different reports on repetition")

    details = {
        "workload": workload.name, "seed": workload.seed,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "seconds": seconds, "trace": int(trace), "machine": machine(),
        "workers": workload.workers, "ops": len(results),
        "op_wall_s": [r.wall for r in results],
        "setup_s": setup,
        "report_sha256": workload.report_sha256(results),
    }
    everything = list(results)
    if not trace:
        metrics = end_to_end_metrics(results, setup)
    else:
        k = min(workload.traced_ops, len(results))
        reference = results[:k]
        if workload.workers != 1:
            reference = [run_op(workload.op(i, workers=1), workload.workdir)
                         for i in range(k)]
            if [r.sha256 for r in reference] != [r.sha256 for r in results[:k]]:
                problems.append("report at workers = 1 differs from workers = "
                                f"{workload.workers}")
            details["report_sha256_workers_1"] = reference[0].sha256
        traced = [run_op(workload.op(i, workers=1), workload.workdir, traced=True)
                  for i in range(k)]
        if [r.sha256 for r in traced] != [r.sha256 for r in reference]:
            problems.append("traced report differs from the untraced one")
        if workload.workers != 1:
            everything += reference
        everything += traced
        busy = sum(r.cpu for r in results) / (
            workload.workers * sum(r.wall for r in results))
        overhead = sum(r.wall for r in traced) - sum(r.wall for r in reference)
        loaded = load_spans(traced)
        metrics = layer_metrics(loaded, busy, overhead)
        details["traced_wall_s"] = sum(r.wall for r in traced)
        details["untraced_wall_s"] = sum(r.wall for r in reference)
        details["missing_wraps"] = sorted({
            name for _, (header, *_) in loaded for name in header["missing"]})

    for r in everything:
        problems += r.problems
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    details["failed_frac"] = failed / attempted
    details["problems"] = problems[:20]
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "littlewood_offord" / "cli.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload = WORKLOADS[args.workload](
            args.seed, SIZES["tiny" if args.tiny else "full"], workdir)
        result, details = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

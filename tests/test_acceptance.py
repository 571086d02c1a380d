"""Acceptance gate: ten end-to-end checks, each printed as one PASS/FAIL
line with its runtime against the stated budget.

Every comparison in this file is exact rational arithmetic; the time
budgets keep the whole gate runnable on one modest core.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from littlewood_offord import (
    CampaignConfig,
    NormSpec,
    atom_1d,
    atom_nd,
    binomial,
    ceil_norm,
    delta,
    double_dual_check,
    dual_witness,
    format_campaign_report,
    gen_extremal,
    holder_check,
    lo_bound,
    make_instance,
    norm_eval,
    project,
    rademacher_atom,
    run_campaign,
    sum_table_1d,
    sum_table_nd,
    verify_instance,
)

POLY3 = NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)])


def _finish(num, label, started, limit_s, failures):
    elapsed = time.perf_counter() - started
    ok = not failures and (limit_s is None or elapsed < limit_s)
    budget = "no time limit" if limit_s is None else f"limit {limit_s:g}s"
    print(f"[acceptance {num:2d}/10] {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, {budget})", flush=True)
    assert not failures, f"{label}: first failures {failures[:5]}"
    if limit_s is not None:
        assert elapsed < limit_s, f"{label}: {elapsed:.2f}s over {limit_s}s"


def test_01_uniform_bound_equals_central_binomial():
    started = time.perf_counter()
    failures = []
    for n in range(1, 41):
        if lo_bound(n, 0) != Fraction(binomial(n, n // 2), 2 ** n):
            failures.append(n)
    _finish(1, "uniform bound equals central binomial / 2^n, n <= 40",
            started, 1.0, failures)


def test_02_bound_identity_positivity_monotonicity():
    started = time.perf_counter()
    failures = []
    for n in range(1, 101):
        previous = None
        for k in range(0, n + 1):
            b = lo_bound(n, k)
            if b != rademacher_atom(n, k + delta(n, k)):
                failures.append(("identity", n, k))
            if not b > 0:
                failures.append(("positive", n, k))
            if previous is not None and b > previous:
                failures.append(("monotone", n, k))
            previous = b
    _finish(2, "bound = sign-sum atom at k+delta, positive, non-increasing",
            started, 5.0, failures)


def test_03_grid_atoms_never_exceed_bound():
    started = time.perf_counter()
    failures = []
    # Flipping the sign of any coefficient permutes the sign patterns,
    # so the sum distribution depends only on the magnitudes: positive
    # tuples cover the full +-{1/4, 1/2, 3/4, 1} grid.
    magnitudes = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for n in range(1, 9):
        total = 2 ** n
        bounds = [lo_bound(n, k) for k in range(n + 1)]
        first = True
        for coeffs in itertools.product(magnitudes, repeat=n):
            table = sum_table_1d(coeffs)
            for t, count in table.items():
                if Fraction(count, total) > bounds[math.ceil(abs(t))]:
                    failures.append((coeffs, t))
            if first:
                first = False
                for t, count in table.items():
                    if atom_1d(coeffs, t) != Fraction(count, total):
                        failures.append(("atom-vs-table", coeffs, t))
    _finish(3, "1-d grid atoms never exceed the ceiling bound, n <= 8",
            started, 120.0, failures)


def test_04_planar_grid_campaign_verifies_chain():
    started = time.perf_counter()
    config = CampaignConfig(
        mode="exhaustive-grid",
        norms=(NormSpec.l1(), NormSpec.l2(), NormSpec.linf(), POLY3),
        n_min=1, n_max=6, d_min=2, d_max=2,
        grid=(Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)),
        workers=1)
    report = run_campaign(config)
    failures = [(v.index, v.report) for v in report.violations]
    failures += [("error", i, msg) for i, msg in report.errors]
    if report.instances == 0:
        failures.append("no instances enumerated")
    _finish(4, f"planar grid campaign, exact chain on {report.instances} "
            "instances, n <= 6", started, 600.0, failures)


def test_05_extremal_instances_are_tight():
    started = time.perf_counter()
    failures = []
    for norm in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
        for n in range(1, 17):
            for k in range(1, n + 1):
                for value in (Fraction(k), Fraction(k) - Fraction(1, 2)):
                    report = verify_instance(gen_extremal(n, norm, value))
                    if not (report.tight and report.chain_holds):
                        failures.append((norm.kind, n, k, value))
    _finish(5, "extremal instances meet the bound with equality, n <= 16",
            started, 60.0, failures)


def test_06_uniform_mode_respects_central_bound():
    started = time.perf_counter()
    config = CampaignConfig(
        mode="uniform-kleitman", n_min=1, n_max=14, d_min=1, d_max=3,
        seed=20260815, budget=1000, grid_denominator=4, workers=1)
    report = run_campaign(config)
    failures = [(v.index, v.report) for v in report.violations]
    failures += [("error", i, msg) for i, msg in report.errors]
    if report.instances != 1000:
        failures.append(("instances", report.instances))
    if report.max_ratio > 1:
        failures.append(("max_ratio", report.max_ratio))
    _finish(6, "largest atoms of 1000 seeded l2 instances respect the "
            "uniform bound", started, 120.0, failures)


def _attains(spec, x, witness):
    inner = sum((a * b for a, b in zip(x, witness.direction)), Fraction(0))
    nx = norm_eval(spec, x)
    if nx.kind == "squared":
        return inner >= 0 and inner * inner == nx.value * witness.scale.value
    return inner == nx.value * witness.scale.value


def test_07_duality_checks_hold_on_seeded_samples():
    started = time.perf_counter()
    failures = []
    for spec in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf()):
        rng = random.Random(f"duality:{spec.kind}")
        for i in range(10000):
            d = rng.randint(1, 4)
            x = tuple(Fraction(rng.randint(-24, 24), rng.choice((1, 2, 4, 8)))
                      for _ in range(d))
            u = tuple(Fraction(rng.randint(-24, 24), rng.choice((1, 2, 4, 8)))
                      for _ in range(d))
            if not holder_check(spec, x, u):
                failures.append(("holder", spec.kind, i))
            if not double_dual_check(spec, x):
                failures.append(("double-dual", spec.kind, i))
            if any(x) and not _attains(spec, x, dual_witness(spec, x)):
                failures.append(("witness", spec.kind, i))
    _finish(7, "Holder, double dual, and witness attainment on 30000 "
            "seeded pairs", started, 30.0, failures)


def _naive_atom_1d(coeffs, t):
    den = math.lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (den // c.denominator) for c in coeffs]
    t = Fraction(t)
    if den % t.denominator:
        return Fraction(0)
    ti = t.numerator * (den // t.denominator)
    hits = sum(1 for pattern in itertools.product(*((v, -v) for v in scaled))
               if sum(pattern) == ti)
    return Fraction(hits, 2 ** len(coeffs))


def _naive_atom_nd(vectors, x):
    den = math.lcm(*(c.denominator for v in vectors for c in v))
    scaled = [tuple(c.numerator * (den // c.denominator) for c in v)
              for v in vectors]
    x = [Fraction(c) for c in x]
    if any(den % c.denominator for c in x):
        return Fraction(0)
    xi = [c.numerator * (den // c.denominator) for c in x]
    coords = range(len(xi))
    hits = 0
    for pattern in itertools.product((1, -1), repeat=len(vectors)):
        if all(sum(e * v[j] for e, v in zip(pattern, scaled)) == xi[j]
               for j in coords):
            hits += 1
    return Fraction(hits, 2 ** len(vectors))


def _random_fractions(rng, count):
    return [Fraction(rng.randint(-8, 8) or 1, rng.choice((1, 2, 4, 8)))
            for _ in range(count)]


def test_08_split_enumeration_matches_naive_enumeration():
    started = time.perf_counter()
    failures = []
    rng = random.Random("split-vs-naive")
    for i in range(350):
        n = rng.randint(1, 16)
        coeffs = _random_fractions(rng, n)
        realized = sum(rng.choice((-1, 1)) * c for c in coeffs)
        table = sum_table_1d(coeffs)
        for t in (realized, realized + Fraction(rng.randint(-2, 2), 2)):
            expected = _naive_atom_1d(coeffs, t)
            if (atom_1d(coeffs, t) != expected
                    or Fraction(table.get(t, 0), 2 ** n) != expected):
                failures.append(("1d", i, t))
    for i in range(150):
        n = rng.randint(1, 12)
        d = rng.randint(2, 3)
        vectors = [tuple(_random_fractions(rng, d)) for _ in range(n)]
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        realized = tuple(sum(s * v[j] for s, v in zip(signs, vectors))
                         for j in range(d))
        shifted = realized[:d - 1] + (realized[-1] + Fraction(1, 2),)
        table = sum_table_nd(vectors)
        for x in (realized, shifted):
            expected = _naive_atom_nd(vectors, x)
            if (atom_nd(vectors, x) != expected
                    or Fraction(table.get(x, 0), 2 ** n) != expected):
                failures.append(("nd", i, x))
    _finish(8, "split-table counts equal naive sign enumeration on 500 "
            "instances", started, 60.0, failures)


def _coefficient_in_ball(c, scale):
    if scale.kind == "squared":
        return c * c <= scale.value
    return abs(c) <= scale.value


def test_09_orthogonal_vectors_force_clean_perturbation():
    started = time.perf_counter()
    failures = []
    cases = 0
    for norm in (NormSpec.l1(), NormSpec.l2(), NormSpec.linf(), POLY3):
        # One vector orthogonal to the dual witness of (t, 0): the
        # second axis for l2/linf/poly, the anti-diagonal for l1.
        orth = (Fraction(1, 2), Fraction(-1, 2)) if norm.kind == "l1" \
            else (Fraction(0), Fraction(1, 2))
        for n_axis in (1, 2, 3):
            for n_orth in (1, 2):
                for t in (Fraction(1), Fraction(3, 2), Fraction(2)):
                    cases += 1
                    target = (t, Fraction(0))
                    vectors = [(Fraction(1), Fraction(0))] * n_axis
                    vectors += [orth] * n_orth
                    instance = make_instance(vectors, target, norm)
                    proj = project(instance)
                    tag = (norm.kind, n_axis, n_orth, t)
                    if not proj.perturbed:
                        failures.append(("not perturbed", tag))
                    if any(c == 0 for c in proj.coefficients):
                        failures.append(("zero coefficient", tag))
                    if not all(_coefficient_in_ball(c, proj.scale)
                               for c in proj.coefficients):
                        failures.append(("coefficient outside ball", tag))
                    if proj.k != ceil_norm(norm, target):
                        failures.append(("ceil changed", tag))
                    if not verify_instance(instance).chain_holds:
                        failures.append(("chain", tag))
    assert cases >= 50
    _finish(9, f"orthogonal vectors perturb cleanly on {cases} instances",
            started, 10.0, failures)


def test_10_campaign_reports_are_byte_identical():
    started = time.perf_counter()
    base = CampaignConfig(
        mode="random", norms=(NormSpec.l1(), NormSpec.l2(), NormSpec.linf()),
        n_min=1, n_max=8, d_min=1, d_max=2, seed=99, budget=120)
    texts = []
    for workers in (1, 1, 8):
        config = base.replace(workers=workers)
        texts.append(format_campaign_report(run_campaign(config)))
    failures = [] if len(set(texts)) == 1 else ["reports differ"]
    _finish(10, "identical configs give byte-identical reports, workers "
            "1 and 8", started, None, failures)

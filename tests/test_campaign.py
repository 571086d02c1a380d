"""Instance generators and campaign runs: determinism, aggregation,
config parsing, and report serialization."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from littlewood_offord import (CampaignConfig, CampaignReport, CapacityError,
                               InputError, Instance, NormSpec,
                               PerturbationError, VerificationReport,
                               Violation, ceil_norm, delta,
                               format_campaign_config, format_campaign_report,
                               gen_extremal, gen_random, lo_bound, make_instance,
                               parse_campaign_config, project,
                               reachable_sums_nd, run_campaign,
                               verify_instance)
from littlewood_offord import campaign, exactnum, reduction
from littlewood_offord.campaign import _build_tasks, _orbit, _task_orbit
from oracles import (enumerate_atom_1d, enumerate_atom_nd, outcome,
                     reference_gen_random, reference_sweep)

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
GRID = (F(-1), F(-1, 2), F(1, 2), F(1))


def test_gen_extremal_examples():
    inst = gen_extremal(2, L1, F(3, 2))
    assert inst.vectors == ((F(3, 4), 0), (F(3, 4), 0))
    assert inst.target == (F(3, 2), 0)

    inst = gen_extremal(4, L2, 2)
    assert inst.vectors == ((F(1), 0),) * 4

    inst = gen_extremal(3, LINF, 1)          # k = 1, delta(3, 1) = 0
    assert inst.vectors == ((F(1), 0),) * 3


def test_gen_extremal_is_exactly_tight():
    for norm in (L1, L2, LINF):
        for n in range(1, 11):
            for k in range(1, n + 1):
                for value in (F(k), F(k) - F(1, 2)):
                    report = verify_instance(gen_extremal(n, norm, value))
                    assert report.tight
                    assert report.chain_holds
                    assert report.k == k


def test_gen_extremal_rejects_bad_parameters():
    with pytest.raises(InputError):
        gen_extremal(0, L2, 1)
    with pytest.raises(InputError):
        gen_extremal(3, L2, 0)
    with pytest.raises(InputError):
        gen_extremal(3, L2, 4)               # value > n unreachable
    with pytest.raises(InputError):
        gen_extremal(3, NormSpec.polyhedral([(1, 0), (0, 1)]), 1)


def test_gen_random_is_deterministic_and_valid():
    a = gen_random(420, 5, 2, L2, 4)
    b = gen_random(420, 5, 2, L2, 4)
    assert a == b
    c = gen_random(421, 5, 2, L2, 4)
    assert a != c                            # different seed, different draw
    assert a.n == 5 and a.dimension == 2
    for norm in (L1, L2, LINF):
        for seed in range(25):
            inst = gen_random(seed, 4, 2, norm, 4)
            assert isinstance(inst, Instance)   # ball and zero checks ran


def test_gen_random_denominator_one_reduces_to_pure_signs():
    for seed in range(40):
        inst = gen_random(seed, 5, 1, LINF, 1)
        assert all(v[0] in (F(1), F(-1)) for v in inst.vectors)
        report = verify_instance(inst)
        assert report.chain_holds
        t = abs(inst.target[0])
        reachable = t <= 5 and (5 - t.numerator) % 2 == 0 and t.denominator == 1
        if reachable:
            # pure sign sum at an achievable target meets the bound exactly
            assert report.tight
        else:
            assert report.p_exact == 0


def test_gen_random_infeasible_grid_errors():
    tiny_ball = NormSpec.polyhedral([(100, 0), (0, 100)])
    with pytest.raises(InputError):
        gen_random(7, 2, 2, tiny_ball, 1)


def test_gen_random_matches_fraction_sampler():
    # Integer draws against Fraction draws: the same instances, and the
    # same errors for an infeasible grid and a planar norm off d = 2.
    tiny_ball = NormSpec.polyhedral([(100, 0), (0, 100)])
    for seed in range(12):
        for norm in (L1, L2, LINF, POLY2, tiny_ball):
            for d in (1, 2, 3):
                for g in (1, 2, 3, 4, 8):
                    args = (seed, 1 + seed % 6, d, norm, g)
                    assert (outcome(gen_random, *args)
                            == outcome(reference_gen_random, *args)), args
    message = outcome(gen_random, 7, 2, 2, tiny_ball, 1)[1]
    assert message.startswith("could not sample a nonzero unit-ball vector")


# Zero coordinates put targets on witness hyperplanes of other vectors,
# so every sweep below from d = 2 on also runs perturbation fallbacks.
GRID0 = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))
GRID0_3D = (F(-1), F(0), F(1, 2))
POLY2 = NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)])
SWEEPS = (
    [(nm, 1, GRID0, 4) for nm in (L1, L2, LINF, NormSpec.polyhedral([(2,)]))]
    + [(L1, 2, GRID0, 3), (L2, 2, GRID0, 3), (LINF, 2, GRID0, 2),
       (POLY2, 2, GRID0, 2)]
    + [(nm, 3, GRID0_3D, 2) for nm in
       (L1, L2, LINF,
        NormSpec.polyhedral([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))])


def _sweep(norms, d, grid, n_max, **kwargs):
    return CampaignConfig(mode="exhaustive-grid", norms=norms, n_min=1,
                          n_max=n_max, d_min=d, d_max=d, grid=grid, **kwargs)


def _same_as_reference(cfg):
    """The orbit sweep's report, checked byte for byte against the
    unreduced per-multiset sweep."""
    report = run_campaign(cfg)
    text = format_campaign_report(report)
    assert text == format_campaign_report(reference_sweep(cfg)), cfg
    return report


def _check_against_oracles(norm, vectors):
    """Every target of one multiset against brute-force enumeration,
    which shares no code with the chain."""
    for target in reachable_sums_nd(vectors):
        instance = Instance(vectors, target, norm)
        report = verify_instance(instance)
        proj = project(instance)
        assert report.p_exact == enumerate_atom_nd(vectors, target)
        assert report.p_projected == enumerate_atom_1d(proj.coefficients,
                                                       proj.target_value)
        assert report.perturbed == proj.perturbed
        assert report.k == proj.k == ceil_norm(norm, target)


def test_exhaustive_campaign_matches_direct_verification(monkeypatch):
    perturbations = []
    perturb = reduction.Chain.perturb

    def counted(*args):
        perturbations.append(args)
        return perturb(*args)
    monkeypatch.setattr(reduction.Chain, "perturb", counted)
    for norm, d, grid, n_max in SWEEPS:
        cfg = _sweep((norm,), d, grid, n_max)
        perturbations.clear()
        report = run_campaign(cfg)
        swept = len(perturbations)
        perturbations.clear()
        assert (format_campaign_report(report)
                == format_campaign_report(reference_sweep(cfg))), cfg
        # A sign flip keeps zero coefficients zero, so each member reruns
        # exactly the targets that perturb on it alone.
        assert swept == len(perturbations), (norm, d)
        assert report.verified and not report.errors
        assert report.max_ratio <= 1
        # In one dimension no nonzero vector projects to zero.
        assert bool(swept) == (d > 1), (norm, d)
        universe = campaign._grid_universe(grid, d, norm)
        for n in range(1, min(n_max, 3) + 1):
            for combo in combinations_with_replacement(universe, n):
                _check_against_oracles(norm, combo)


# Orbits are whole on the symmetric grid and partial on the other two,
# where a vector with a coordinate 1 (second grid) or 1/2 (third) has no
# negation in the universe.
ORBIT_GRIDS = (GRID, (F(-1, 2), F(1, 2), F(1)), (F(-1), F(1, 2), F(1)))


@pytest.mark.parametrize("grid", ORBIT_GRIDS)
@pytest.mark.parametrize("d, n_max", [(1, 5), (2, 3), (3, 2)])
def test_orbit_sweep_matches_the_per_multiset_sweep(grid, d, n_max):
    # The facet norm is planar, so it runs at d = 2 only.
    norms = (L1, L2, LINF) + ((POLY2,) if d == 2 else ())
    _same_as_reference(_sweep(norms, d, grid, n_max))


def test_orbit_members_are_every_sign_choice_in_the_universe():
    a, b = (F(1, 2), F(-1)), (F(1), F(1, 2))
    size, members = _orbit((a, a, b), (True, True, False))
    neg = (F(-1, 2), F(1))
    assert size == 3
    assert list(members) == [(a, a, b), (neg, a, b), (neg, neg, b)]
    for grid in ORBIT_GRIDS:
        cfg = _sweep((LINF,), 2, grid, 3)
        streamed = [combo for n in range(1, 4) for combo in
                    combinations_with_replacement(
                        campaign._grid_universe(grid, 2, LINF), n)]
        tasks = list(_build_tasks(cfg))
        orbits = [m for task in tasks for m in _orbit(*task[2:])[1]]
        assert sorted(orbits) == sorted(streamed)
        assert len(set(orbits)) == len(orbits) == sum(
            _orbit(*task[2:])[0] for task in tasks)
        # the representative comes first
        assert all(next(_orbit(*task[2:])[1]) == task[2] for task in tasks)


def test_orbit_sweep_is_the_same_for_any_worker_count():
    cfg = _sweep((L1, LINF), 2, ORBIT_GRIDS[1], 3)
    text = format_campaign_report(_same_as_reference(cfg))
    assert format_campaign_report(run_campaign(replace(cfg, workers=2))) == text


def test_perturbation_errors_on_members_are_their_own(monkeypatch):
    # Every representative of the symmetric grid holds only vectors above
    # their negation; a perturbation search fails on any other multiset.
    # So members, which rerun the targets the representative perturbed,
    # record errors that the representative does not, at their own index.
    perturb = reduction.Chain.perturb

    def members_fail(chain, *args):
        if any(v < tuple(-c for c in v) for v in chain.scaled):
            raise PerturbationError("perturbation refused on a member")
        return perturb(chain, *args)
    monkeypatch.setattr(reduction.Chain, "perturb", members_fail)
    for norm in (L1, POLY2):
        text = format_campaign_report(
            _same_as_reference(_sweep((norm,), 2, GRID, 3)))
        assert "status = incomplete" in text
        assert "message = perturbation refused on a member" in text


def test_exhaustive_violations_come_from_the_per_instance_path(monkeypatch):
    # Lower the bound the sweep's counts and lo_bound both read, so that
    # tight instances fail.
    real = exactnum.lo_count

    def lowered(n, k):
        return real(n, k) - 1
    monkeypatch.setattr(exactnum, "lo_count", lowered)
    monkeypatch.setattr(reduction, "lo_count", lowered)
    for norm, grid in ((L2, GRID0), (LINF, GRID0), (L1, ORBIT_GRIDS[2])):
        text = format_campaign_report(
            _same_as_reference(_sweep((norm,), 2, grid, 2)))
        assert "status = violations-found" in text
        assert "[violation 1]" in text and "chain_holds = false" in text


def test_failed_certificate_is_recorded_per_instance(monkeypatch):
    # 1-d vectors never need perturbation, so every instance reaches the
    # ceiling certificate, which is made to fail.
    def broken(t, s, squared):
        return -1
    monkeypatch.setattr(reduction, "ceil_ratio", broken)
    for grid in ((F(1, 2), F(1)), GRID):
        report = _same_as_reference(_sweep((L2,), 1, grid, 3))
        assert report.instances > 0
        assert [index for index, _ in report.errors] == list(
            range(report.instances))
        assert {message for _, message in report.errors} == {
            "projection changed the target's norm ceiling"}
        assert report.status == "incomplete"
        assert "status = incomplete" in format_campaign_report(report)
    extremal = run_campaign(CampaignConfig(mode="extremal", norms=(L2,),
                                           n_min=1, n_max=2))
    assert len(extremal.errors) == extremal.instances == 6


def test_invalid_multiset_records_one_error_per_target():
    # The grid filter keeps such multisets out of a sweep; a task given
    # one still counts each reachable sum, (+-3, 0) and (+-1, 0), as an
    # instance with an error, for each member of the orbit on its own
    # chain.
    one, big = (F(1), F(0)), (F(2), F(0))
    res = _task_orbit(L2, (one, big), (False, False))
    assert res.count == 4 and res.tight == 0 and not res.violations
    assert res.errors == [(((one, big), local),
                           "vector 1 lies outside the unit ball")
                          for local in range(4)]
    res = _task_orbit(L2, (one, big), (False, True))
    assert res.count == 8 and res.targets == 4
    flipped = ((F(-2), F(0)), one)
    assert res.errors[4:] == [((flipped, local),
                               "vector 0 lies outside the unit ball")
                              for local in range(4)]


def test_extremal_campaign_max_ratio_counts_tight_instances():
    cfg = CampaignConfig(mode="extremal", norms=(L2,), n_min=1, n_max=3)
    report = run_campaign(cfg)
    assert report.tight == report.instances == 12
    assert report.max_ratio == 1
    assert "max_ratio = 1\n" in format_campaign_report(report)


def test_campaign_pool_is_clamped_to_tasks_and_cores(monkeypatch):
    sizes, chunks = [], []

    class FakePool:
        """Runs the tasks in this process and records the pool size and
        the chunk size of its task stream."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            chunks.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(campaign, "Pool", FakePool)
    cfg = CampaignConfig(mode="random", norms=(L2,), n_max=3, seed=4,
                         budget=5 * 64, workers=50)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    expected = format_campaign_report(run_campaign(replace(cfg, workers=1)))
    assert sizes == []
    assert format_campaign_report(run_campaign(cfg)) == expected
    assert sizes == [3]                      # cores
    run_campaign(replace(cfg, budget=2 * 64))
    assert sizes == [3, 2]                   # tasks
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: None)
    assert format_campaign_report(run_campaign(cfg)) == expected
    assert sizes == [3, 2]                   # unknown core count: no pool
    # Batched tasks go out one at a time, so that the processes share
    # them evenly; orbit and extremal tasks go out eight at a time.
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
    run_campaign(CampaignConfig(mode="uniform-kleitman", n_max=3, seed=4,
                                budget=2 * 64, workers=2))
    run_campaign(CampaignConfig(mode="exhaustive-grid", norms=(L1,),
                                n_max=2, grid=GRID, workers=2))
    run_campaign(CampaignConfig(mode="extremal", norms=(L1,), n_max=2,
                                workers=2))
    assert chunks == [1, 1, 1, 8, 8]


def test_campaign_tasks_are_generated_as_they_run():
    # linf on the planar grid at n <= 7 has 245,156 vector multisets in
    # 6,434 sign orbits, one task each; listing every task before the
    # first one runs costs about 1.6 MiB.
    cfg = CampaignConfig(mode="exhaustive-grid", norms=(LINF,), n_min=1,
                         n_max=7, d_min=2, d_max=2, grid=GRID)
    tracemalloc.start()
    try:
        first = next(iter(_build_tasks(cfg)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (_task_orbit, LINF, ((F(1, 2), F(-1)),), (True,))
    assert peak < 2 ** 20


def test_campaign_reports_are_deterministic_across_workers():
    cfg = CampaignConfig(mode="random", norms=(L1, L2, LINF),
                         n_min=1, n_max=7, d_min=1, d_max=2,
                         seed=99, budget=90)
    texts = {format_campaign_report(run_campaign(replace(cfg, workers=w)))
             for w in (1, 1, 3)}
    assert len(texts) == 1


def test_random_campaign_draws_only_dimension_compatible_norms():
    # A fixed-dimension facet norm must not burn budget on mismatched d.
    poly = NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)])
    cfg = CampaignConfig(mode="random", norms=(L1, L2, LINF, poly),
                         n_min=1, n_max=8, d_min=1, d_max=3,
                         seed=5150, budget=150)
    report = run_campaign(cfg)
    assert report.verified and not report.errors
    assert report.instances == 150

    only_poly = replace(cfg, norms=(poly,), d_min=3, d_max=3, budget=5)
    report = run_campaign(only_poly)
    assert len(report.errors) == 5
    assert "fits dimension" in report.errors[0][1]


def test_exhaustive_campaign_skips_dimensions_a_norm_does_not_fit():
    # The facet norm is planar; at d = 1 only l2 runs.  l2 has no grid
    # point of the planar grid {-1, 1}^2 in its ball, the facet norm all
    # four, so the sweep is 2 * 2 targets at d = 1 and 4 * 2 at d = 2.
    text = ("mode = exhaustive-grid\nnorms = l2, poly:[1,0;0,1]\n"
            "n = 1..1\nd = 1..2\ngrid = -1, 1\n")
    report = run_campaign(parse_campaign_config(text))
    assert report.instances == 12
    assert report.verified and not report.errors
    with pytest.raises(InputError, match="fits no dimension in 1..1"):
        parse_campaign_config(text.replace("d = 1..2", "d = 1..1"))


def test_campaign_zero_budget_is_verified_and_empty():
    cfg = CampaignConfig(mode="random", norms=(L2,), budget=0)
    report = run_campaign(cfg)
    assert report.verified
    assert report.instances == 0
    text = format_campaign_report(report)
    assert "instances = 0" in text
    assert "status = verified" in text


def test_extremal_campaign_counts_every_instance_tight():
    cfg = CampaignConfig(mode="extremal", norms=(L1, L2, LINF),
                         n_min=1, n_max=6)
    report = run_campaign(cfg)
    # two values per (norm, n, k): k and k - 1/2
    assert report.instances == 3 * 2 * sum(range(1, 7))
    assert report.tight == report.instances
    assert report.verified and not report.errors


def test_uniform_campaign_verifies_k0_bound():
    cfg = CampaignConfig(mode="uniform-kleitman", n_min=1, n_max=10,
                         d_min=1, d_max=3, seed=5, budget=60)
    report = run_campaign(cfg)
    assert report.verified and not report.errors
    assert report.instances == 60
    assert report.max_ratio <= 1


def test_campaign_config_round_trip():
    cfg = CampaignConfig(
        mode="exhaustive-grid",
        norms=(L1, NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)]), LINF),
        n_min=1, n_max=4, d_min=2, d_max=2, grid=GRID, seed=12,
        budget=50, grid_denominator=3, workers=2)
    text = format_campaign_config(cfg)
    assert text.splitlines()[0] == "# lo-campaign-config v1"
    assert parse_campaign_config(text) == cfg


def test_campaign_config_parse_errors():
    with pytest.raises(InputError):
        parse_campaign_config("budget = 3\n")            # no mode
    with pytest.raises(InputError):
        parse_campaign_config("mode = smoke\n")
    with pytest.raises(InputError):
        parse_campaign_config("mode = random\nnorms = l1\nbudget = x\n")
    with pytest.raises(InputError):
        parse_campaign_config("mode = random\nnorms = l1\nfrobs = 3\n")
    with pytest.raises(InputError):
        parse_campaign_config("mode = random\nnorms = l1\nn = 1..b\n")
    with pytest.raises(InputError):
        parse_campaign_config("mode = exhaustive-grid\nnorms = l1\n")  # no grid
    with pytest.raises(InputError):
        parse_campaign_config("mode = extremal\nnorms = poly:[1,0;0,1]\n")
    with pytest.raises(InputError, match="takes no norms"):
        parse_campaign_config("mode = uniform-kleitman\nnorms = l1\n")
    with pytest.raises(InputError, match="unknown norm spec"):
        parse_campaign_config("mode = random\nnorms = lp:3\nbudget = 3\n")
    with pytest.raises(InputError, match="line 3: duplicate key 'budget'"):
        parse_campaign_config("mode = random\nbudget = 3\nbudget = 4\n")
    # Integers are ASCII digits with an optional leading minus only.
    for bad in ("budget = 1_0", "n = \u0663..\u0664", "seed = \u0661",
                "budget = +3", "workers = \u0662", "d = 1..\u0662",
                "grid_denominator = 0x4"):
        with pytest.raises(InputError):
            parse_campaign_config(f"mode = random\nnorms = l1\n{bad}\n")
    # Grid values and norms are compared by value; a repeat is rejected,
    # not counted twice.
    grid_config = "mode = exhaustive-grid\nd = 1..1\nn = 1..2\n"
    assert run_campaign(parse_campaign_config(
        grid_config + "norms = linf\ngrid = -1, 1\n")).instances == 13
    for bad in ("norms = linf\ngrid = -1, 1, 1",
                "norms = linf\ngrid = -1, 1, 2/2",
                "norms = linf, linf\ngrid = -1, 1",
                "norms = poly:[1;2], poly:[2/2;2]\ngrid = -1, 1"):
        with pytest.raises(InputError, match="must be distinct"):
            parse_campaign_config(grid_config + bad + "\n")
    with pytest.raises(InputError, match="norms must be distinct"):
        parse_campaign_config("mode = random\nnorms = l2, l1, l2\n")


def test_campaign_config_rejects_empty_list_entries():
    # An empty item is an error, not an item to skip.
    grid_config = "mode = exhaustive-grid\nd = 1..1\nn = 1..2\n"
    for bad in ("norms = l1,,l2\ngrid = -1, 1",
                "norms = l1, l2,\ngrid = -1, 1",
                "norms = ,poly:[1;2]\ngrid = -1, 1",
                "norms = linf\ngrid = 1,,1/2",
                "norms = linf\ngrid = -1, 1, ",
                "norms = linf\ngrid = -1, , 1"):
        with pytest.raises(InputError, match="empty entry in (norms|grid)"):
            parse_campaign_config(grid_config + bad + "\n")


def test_campaign_config_capacity_limits():
    with pytest.raises(CapacityError):
        CampaignConfig(mode="exhaustive-grid", norms=(L1,), grid=GRID,
                       n_min=1, n_max=30)
    with pytest.raises(CapacityError):
        CampaignConfig(mode="random", norms=(L1,), n_min=1, n_max=60,
                       budget=1)


def test_violation_serialization_is_replayable():
    # The chain never fails on honest runs, so render a synthetic
    # violation to pin the report layout.
    inst = make_instance([(1, 0), (0, 1)], (1, 1), L2)
    fake = VerificationReport(
        p_exact=F(1, 4), p_projected=F(1, 8), bound=F(1, 4), k=2, delta=0,
        chain_holds=False, tight=False, perturbed=False)
    report = CampaignReport(mode="random", instances=1, tight=0,
                            max_ratio=F(1), violations=[Violation(0, inst, fake)])
    text = format_campaign_report(report)
    assert "status = violations-found" in text
    assert "[violation 1]" in text
    assert "index = 0" in text
    assert "vectors = 1,0; 0,1" in text
    assert "chain_holds = false" in text


def test_campaign_report_hides_wall_time():
    cfg = CampaignConfig(mode="random", norms=(L2,), budget=5, seed=1)
    report = run_campaign(cfg)
    assert report.wall_time > 0
    assert "wall" not in format_campaign_report(report)
    assert "workers" not in format_campaign_report(report)

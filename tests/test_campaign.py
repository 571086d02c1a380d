"""Instance generators and campaign runs: determinism, aggregation,
config parsing, and report serialization."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from littlewood_offord import (CampaignConfig, CampaignReport, CapacityError,
                               InputError, Instance, NormSpec,
                               VerificationReport, Violation, delta,
                               format_campaign_config, format_campaign_report,
                               gen_extremal, gen_random, lo_bound, make_instance,
                               parse_campaign_config, reachable_sums_nd,
                               run_campaign, verify_instance)
from littlewood_offord.campaign import _grid_universe

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


def test_exhaustive_campaign_matches_direct_verification():
    cfg = CampaignConfig(mode="exhaustive-grid", norms=(L1, L2),
                         n_min=1, n_max=2, grid=GRID)
    report = run_campaign(cfg)
    assert report.verified and not report.errors

    from itertools import combinations_with_replacement
    count = tight = 0
    for norm in (L1, L2):
        universe = _grid_universe(GRID, 2, norm)
        for n in (1, 2):
            for combo in combinations_with_replacement(universe, n):
                for target in reachable_sums_nd(combo):
                    count += 1
                    rep = verify_instance(Instance(combo, target, norm))
                    assert rep.chain_holds
                    tight += rep.tight
    assert report.instances == count
    assert report.tight == tight


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
    with pytest.raises(InputError, match="unknown norm spec"):
        parse_campaign_config("mode = random\nnorms = lp:3\nbudget = 3\n")
    with pytest.raises(InputError, match="line 3: duplicate key 'budget'"):
        parse_campaign_config("mode = random\nbudget = 3\nbudget = 4\n")


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

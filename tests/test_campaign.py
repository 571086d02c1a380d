"""Instance generators and campaign runs: determinism, aggregation,
config parsing, and report serialization."""

import math
import os
import pickle
import random
import signal
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest

from littlewood_offord import (CampaignConfig, CampaignReport, CapacityError,
                               CertificateError, InputError, Instance,
                               NormSpec, VerificationReport, Violation,
                               ceil_norm, delta,
                               format_campaign_config, format_campaign_report,
                               gen_extremal, gen_random, in_unit_ball, is_zero,
                               lo_bound, make_instance,
                               parse_campaign_config, project,
                               reachable_sums_nd, run_campaign,
                               verify_instance)
from littlewood_offord import campaign, exactnum, reduction
from littlewood_offord.cli import main as cli_main
from littlewood_offord.concentration import max_atom, scaled_sums
from littlewood_offord.campaign import _build_tasks, _Classes, _task_orbit
from littlewood_offord.norms import act, ceil_norm_over, dot
import oracles
from oracles import (burnside_count, enumerate_atom_1d, enumerate_atom_nd,
                     orbit_members, outcome, rational_vectors,
                     reference_gen_random, reference_group, reference_sweep,
                     sign_orbit)

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


def test_gen_random_draws_are_pinned():
    # The draw stream itself, so that it cannot drift between Python
    # versions: a sign-sum target and an independent one, on each norm.
    for args, vectors, target in (
            ((1, 3, 1, L1, 4), ("-1/2", "-3/4", "-3/4"), "-2"),
            ((2, 4, 2, L2, 4), ("-3/4,1/4", "-1/2,0", "0,-1/4", "1/2,1/2"),
             "1,1/4"),
            ((3, 3, 3, LINF, 4), ("-1/4,1,-1/2", "1/4,3/4,-3/4", "-1,3/4,0"),
             "-1/4,3/4,1"),
            ((4, 4, 2, POLY2, 3), ("-2/3,-1/3", "-1,2/3", "0,1/3", "-1/3,1"),
             "-1,-2/3")):
        assert gen_random(*args) == make_instance(
            [v.split(",") for v in vectors], target.split(","), args[3])


def _draws():
    """Seeded draws over l1, l2, linf and the planar facet norm, d = 1..3
    and n = 1..12, on the 1/4 grid, with their gen_random instances;
    the facet norm off d = 2 raises."""
    for norm in (L1, L2, LINF, POLY2):
        for d in (1, 2, 3):
            for n in range(1, 13):
                args = (97 * n + d, n, d, norm, 4)
                yield args, outcome(campaign._draw, *args), outcome(
                    gen_random, *args)


def test_integer_draws_are_the_fraction_sampler_in_units_of_the_grid():
    for args, drawn, instance in _draws():
        assert instance == outcome(reference_gen_random, *args), args
        if isinstance(instance, Instance):
            vectors, target = drawn
            assert instance.vectors == tuple(
                tuple(F(c, 4) for c in v) for v in vectors)
            assert instance.target == tuple(F(c, 4) for c in target)
        else:
            assert drawn == instance


def test_the_integer_probe_is_verify_instance_times_2_to_the_n():
    # Chain.probe in the grid's units against verify_instance on the
    # Instance, and its exact count against brute-force enumeration.
    for (_, n, _, norm, g), drawn, instance in _draws():
        if not isinstance(instance, Instance):
            continue
        vectors, target = drawn
        exact, projected, allowed, k, perturbed = reduction.Chain(
            norm, g, vectors).probe(target)
        report = verify_instance(instance)
        assert (F(exact, 2 ** n), F(projected, 2 ** n), F(allowed, 2 ** n),
                k, perturbed is not None) == (
            report.p_exact, report.p_projected, report.bound, report.k,
            report.perturbed)
        assert F(exact, 2 ** n) == enumerate_atom_nd(vectors, target)


def test_random_tasks_match_the_per_instance_path():
    # Whole tasks, draws, tallies and error records, against instances
    # drawn in Fractions and verified one at a time.
    tiny_ball = NormSpec.polyhedral([(100, 0), (0, 100)])
    for cfg in (
            CampaignConfig(mode="random", norms=(L1, L2, LINF, POLY2),
                           n_min=1, n_max=12, d_min=1, d_max=3, seed=5),
            CampaignConfig(mode="random", norms=(tiny_ball, L2), n_min=1,
                           n_max=6, d_min=1, d_max=2, seed=6,
                           grid_denominator=1)):
        for start in (0, 64):
            got = campaign._task_random(cfg, start, 64)
            want = oracles.reference_random_task(cfg, start, 64)
            assert (got.instances, got.tight, got.max_ratio,
                    got.errors) == (want.instances, want.tight,
                                    want.max_ratio, want.errors)
            assert not got.violations and not want.violations


def test_random_violations_come_from_the_per_instance_path(monkeypatch):
    # Lower the bound that the probes and lo_bound both read, so that
    # tight instances fail: only those build an Instance, whose record is
    # the one verify_instance gives.
    real = exactnum.lo_count

    def lowered(n, k):
        return real(n, k) - 1
    for module in (exactnum, reduction, campaign):
        monkeypatch.setattr(module, "lo_count", lowered)
    cfg = CampaignConfig(mode="random", norms=(L1, L2, LINF), n_min=1,
                         n_max=8, d_min=1, d_max=2, seed=5,
                         grid_denominator=2)
    got = campaign._task_random(cfg, 0, 64)
    want = oracles.reference_random_task(cfg, 0, 64)
    assert got.violations and got.violations == want.violations
    assert (got.instances, got.tight, got.max_ratio, got.errors) == (
        want.instances, want.tight, want.max_ratio, want.errors)
    # uniform-kleitman: each record is the draw at its most probable sum.
    uniform = campaign._task_uniform(
        CampaignConfig(mode="uniform-kleitman", n_min=1, n_max=6, d_min=1,
                       d_max=2, seed=5, grid_denominator=2), 0, 64)
    assert uniform.violations and not uniform.errors
    for _, instance, report in uniform.violations:
        target, p = max_atom(instance.vectors)
        assert instance.target == target and instance.norm == L2
        assert report == VerificationReport(
            p_exact=p, p_projected=p, bound=lo_bound(instance.n, 0), k=0,
            delta=delta(instance.n, 0), chain_holds=False, tight=False,
            perturbed=False)


# Zero coordinates put targets on witness hyperplanes of other vectors,
# so every sweep below from d = 2 on also runs perturbation fallbacks.
GRID0 = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))
GRID0_3D = (F(-1), F(0), F(1, 2))
POLY2 = NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)])
POLY3D = NormSpec.polyhedral([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
SWEEPS = (
    [(nm, 1, GRID0, 4) for nm in (L1, L2, LINF, NormSpec.polyhedral([(2,)]))]
    + [(L1, 2, GRID0, 3), (L2, 2, GRID0, 3), (LINF, 2, GRID0, 2),
       (POLY2, 2, GRID0, 2)]
    + [(nm, 3, GRID0_3D, 2) for nm in (L1, L2, LINF, POLY3D)])


def _sweep(norms, d, grid, n_max, **kwargs):
    return CampaignConfig(mode="exhaustive-grid", norms=norms, n_min=1,
                          n_max=n_max, d_min=d, d_max=d, grid=grid, **kwargs)


def _universe(norm, d, grid):
    """(den, universe) of the sweep of grid at d under norm, in the
    grid's integer units."""
    _, _, den, universe = next(campaign._grid_universes(
        _sweep((norm,), d, grid, 1)))
    return den, universe


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
        unreduced = len(perturbations)
        perturbations.clear()
        for task in _build_tasks(cfg):
            vectors = rational_vectors(task[3], task[2])
            targets = reachable_sums_nd(vectors)
            for target in targets[len(targets) // 2:]:
                verify_instance(Instance(vectors, target, norm))
        # Only representatives run, on the upper half of their targets (0
        # and the positive sums; -u is certified by u's mirror), so the
        # sweep perturbs exactly the upper-half targets that perturb on a
        # representative alone, and fewer than the per-multiset sweep
        # wherever any target perturbs.
        assert swept == len(perturbations), (norm, d)
        assert report.verified and not report.errors
        assert report.max_ratio <= 1
        # In one dimension no nonzero vector projects to zero.
        assert bool(swept) == (swept < unreduced) == (d > 1), (norm, d)
        den, universe = _universe(norm, d, grid)
        rational = rational_vectors(universe, den)
        for n in range(1, min(n_max, 3) + 1):
            for combo in combinations_with_replacement(rational, n):
                _check_against_oracles(norm, combo)


# On the grid -1, 0, 1 these sweeps reach targets whose witness lies on
# two hyperplanes that no single axis or vector direction leaves at once:
# only the last perturbation pass certifies them.
@pytest.mark.parametrize("norm, d, n_max, instances, tight", [
    (LINF, 3, 4, 338_660, 143_586),
    (POLY3D, 3, 4, 82_066, 39_338),
    (LINF, 4, 3, 700_680, 543_272)])
def test_sweeps_needing_the_last_perturbation_pass_verify(
        norm, d, n_max, instances, tight):
    report = run_campaign(_sweep((norm,), d, (F(-1), F(0), F(1)), n_max))
    assert report.status == "verified" and not report.errors
    assert (report.instances, report.tight) == (instances, tight)


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


# Witnesses tie most often where the grid holds 0: l1 targets with a
# zero coordinate, linf targets with two maximal coordinates, and the
# d = 3 facet norm's functionals, so there a member's own witness most
# often differs from the image of its representative's.
@pytest.mark.parametrize("norm, d, grid, n_max", [
    (POLY3D, 3, GRID0_3D, 2), (L1, 2, GRID0, 3), (LINF, 2, GRID0, 3)])
def test_orbit_sweep_matches_the_per_multiset_sweep_where_witnesses_tie(
        norm, d, grid, n_max):
    _same_as_reference(_sweep((norm,), d, grid, n_max))


def _mirrored(rep, universe):
    """For each vector of rep, whether its negation lies in the
    universe."""
    return tuple(_neg(v) in universe for v in rep)


def _members(task, universe, group):
    """Every multiset of an orbit task, with the first g of group that
    reaches it, enumerated by the oracle over all of group x sign
    choices: the representative first."""
    return orbit_members(task[3], _mirrored(task[3], universe), group)


def test_orbit_members_are_every_sign_choice_in_the_universe():
    a, b = (F(1, 2), F(-1)), (F(1), F(1, 2))
    neg = (F(-1, 2), F(1))
    assert sign_orbit((a, a, b), (True, True, False)) == [
        (a, a, b), (neg, a, b), (neg, neg, b)]
    # With the group, every multiset of the stream is in exactly one
    # task, as g times a sign choice of its representative, and each g
    # reaches one whole sign orbit, of the size of the representative's
    # own.
    for grid in ORBIT_GRIDS:
        for norm in (LINF, POLY2):
            cfg = _sweep((norm,), 2, grid, 3)
            _, universe = _universe(norm, 2, grid)
            group = _Classes(universe, 2, norm).group
            streamed = [combo for n in range(1, 4) for combo in
                        combinations_with_replacement(universe, n)]
            tasks = list(_build_tasks(cfg))
            orbits = [m for task in tasks
                      for _, m in _members(task, universe, group)]
            assert sorted(orbits) == sorted(streamed)
            assert len(set(orbits)) == len(orbits)
            for task in tasks:
                rep = task[3]
                members = _members(task, universe, group)
                sizes = set(Counter(g for g, _ in members).values())
                assert sizes == {len(sign_orbit(
                    rep, _mirrored(rep, universe)))}, task
                # the representative comes first, and g maps it onto
                # each multiset up to signs
                assert members[0] == (tuple((j, 1) for j in range(2)), rep)
                for g, member in members:
                    assert sorted(map(max, member, map(_neg, member))) == \
                        sorted(max(act(g, v), _neg(act(g, v))) for v in rep)


def _neg(v):
    return tuple(-c for c in v)


# (norm, d, grid, |G|): the symmetry groups pinned below.
SYMMETRIC = (F(-1), F(-1, 2), F(0), F(1, 2), F(1))
GROUP_CASES = (
    [(nm, d, SYMMETRIC, size) for nm in (L1, L2, LINF)
     for d, size in ((2, 8), (3, 48))]
    + [(POLY2, 2, SYMMETRIC, 4), (POLY2, 2, GRID, 4),
       (POLY3D, 3, (F(-1), F(0), F(1)), 12),
       (LINF, 2, (F(-1), F(1, 2), F(1)), 2),
       (L2, 1, (F(-1), F(1, 2), F(1)), 1)])
TERNARY = (F(-1), F(0), F(1))
# (norm, d, grid, |G|, number of class permutations)
PERMUTATION_CASES = (
    (L1, 4, TERNARY, 384, 24), (LINF, 4, TERNARY, 384, 192),
    (L1, 2, GRID, 8, 2), (L2, 2, GRID, 8, 2), (LINF, 2, GRID, 8, 4),
    (POLY2, 2, GRID, 4, 2))


def test_symmetry_groups_of_the_norms_and_grids():
    # Signed coordinate permutations that fix the norm and the universe.
    for norm, d, grid, size in GROUP_CASES:
        _, universe = _universe(norm, d, grid)
        classes = _Classes(universe, d, norm)
        group = set(classes.group)
        assert len(group) == len(classes.group) == size, (norm, d, grid)
        assert classes.group[0] == tuple((j, 1) for j in range(d))
        # Each g is known by its images of e_1, ..., e_d; G is closed.
        columns = {tuple(act(g, e) for e in _unit(d)) for g in group}
        for g in group:
            assert sorted(act(g, v) for v in universe) == universe
            for h in group:
                assert tuple(act(g, act(h, e)) for e in _unit(d)) in columns
        # Burnside's count is the number of orbits the search yields.
        for n in range(1, 4):
            assert burnside_count(classes.perms, n) == len(
                list(classes.orbits(n)))


def _unit(d):
    return [tuple(int(i == j) for i in range(d)) for j in range(d)]


def test_class_permutations_are_distinct_and_weights_count_orbits():
    # G induces each class permutation in perms once, the identity
    # first: g and -g permute the classes alike, and on the l1 grid
    # -1, 0, 1 (the classes e_j) so do all 2^d sign flips.
    for norm, d, grid, group, size in PERMUTATION_CASES:
        classes = _Classes(_universe(norm, d, grid)[1], d, norm)
        assert len(classes.group) == group, (norm, d)
        assert len(set(classes.perms)) == len(classes.perms) == size, (norm, d)
        assert classes.perms[0] == tuple(range(len(classes.reps)))
    # On every sweep the orbit tests run, a task's weight is the number
    # of distinct multisets the oracle reaches from its representative
    # over all of G x sign choices, and the weights add up to the stream.
    for grid in ORBIT_GRIDS:
        for d, n_max in ((1, 5), (2, 3), (3, 2)):
            for norm in (L1, L2, LINF) + ((POLY2,) if d == 2 else ()):
                _, universe = _universe(norm, d, grid)
                group = _Classes(universe, d, norm).group
                tasks = list(_build_tasks(_sweep((norm,), d, grid, n_max)))
                for task in tasks:
                    assert task[4] == len(_members(task, universe, group))
                assert sum(task[4] for task in tasks) == sum(
                    math.comb(len(universe) + n - 1, n)
                    for n in range(1, n_max + 1)), (norm, d, grid)


# A norm whose coordinates differ in reach: on -3/4, -1/2, 1/2 only -1/2
# and 1/2 fit its second coordinate, so negating that coordinate maps
# the universe onto itself, but the universe's coordinate values are not
# their own negation, and G keeps no sign flip.
REACH = NormSpec.polyhedral([(1, 0), (0, 2)])
UNEVEN = (F(-3, 4), F(-1, 2), F(1, 2))
# (norms, d, grid) of the exhaustive-grid sweeps the CI workflow runs
CI_SWEEPS = (
    ((LINF,), 3, TERNARY), ((L1, POLY2), 2, GRID),
    ((L1, LINF), 2, ORBIT_GRIDS[1]), ((L2, LINF), 2, GRID0),
    ((POLY3D,), 3, TERNARY), ((L1, L2, LINF), 3, GRID0),
    ((L1, LINF), 4, TERNARY), ((L1, LINF), 5, TERNARY),
    ((L1, L2, LINF, POLY2), 2, GRID), ((L1, L2, LINF), 4, GRID0))
QUARTERS = tuple(F(c, 4) for c in (0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6))


def _group_blocks():
    """(norm, d, grid) of every group and permutation case, every CI
    sweep, and 40 seeded grids of 1 to 5 quarter values at d = 1..3
    under every norm that fits d."""
    yield from (case[:3] for case in GROUP_CASES + list(PERMUTATION_CASES))
    for norms, d, grid in CI_SWEEPS:
        yield from ((norm, d, grid) for norm in norms)
    draw = random.Random(31)
    for _ in range(40):
        grid = tuple(sorted(draw.sample(QUARTERS, draw.randint(1, 5))))
        for d in (1, 2, 3):
            for norm in (L1, L2, LINF, POLY2, REACH, POLY3D):
                if norm.dimension in (None, d):
                    yield norm, d, grid


def test_the_group_comes_from_the_norm_and_the_coordinate_values():
    # Where the universe's coordinate values are their own negation, G is
    # the group that the per-vector test finds, in its order.  Elsewhere
    # G keeps only the permutations that fix the norm: a subgroup of it,
    # in its order and the identity first, which is all of it unless the
    # coordinates differ in reach.
    subgroups = 0
    for norm, d, grid in _group_blocks():
        _, universe = _universe(norm, d, grid)
        group = _Classes(universe, d, norm).group
        reference = reference_group(universe, d, norm)
        values = {c for u in universe for c in u}
        if values == {-c for c in values}:
            assert group == reference, (norm, d, grid)
            continue
        assert group[0] == reference[0]
        assert tuple(g for g in reference if g in group) == group
        columns = {tuple(act(g, e) for e in _unit(d)) for g in group}
        for g in group:
            for h in group:
                assert tuple(act(g, act(h, e)) for e in _unit(d)) in columns
        subgroups += group != reference
    assert subgroups > 0
    _, universe = _universe(REACH, 2, UNEVEN)
    assert reference_group(universe, 2, REACH) == (((0, 1), (1, 1)),
                                                   ((0, 1), (1, -1)))
    assert _Classes(universe, 2, REACH).group == (((0, 1), (1, 1)),)


def test_a_subgroup_of_the_universe_symmetry_gives_the_same_report():
    # No CI sweep reaches a group smaller than the universe's symmetry.
    # Here G is the identity alone, though negating the second coordinate
    # maps the universe onto itself: its orbits are finer, so the sweep
    # runs more tasks, and its report is the unreduced sweep's.
    report = _same_as_reference(_sweep((REACH,), 2, UNEVEN, 3))
    assert (report.instances, report.tight) == (428, 292)


def test_the_group_is_built_without_acting_on_the_universe(monkeypatch):
    # The group build applies no g to the universe: act runs only to
    # find the class permutation each g in G induces, once for each
    # class representative.
    calls = []

    def counted(g, u):
        calls.append(g)
        return act(g, u)
    monkeypatch.setattr(campaign, "act", counted)
    for norm in (L1, L2, LINF):
        _, universe = _universe(norm, 4, GRID0)
        calls.clear()
        classes = _Classes(universe, 4, norm)
        assert len(calls) == len(classes.group) * len(classes.reps), norm
    # 384 signed permutations on 312 classes
    assert len(calls) == 119_808


def test_sweep_work_is_pinned(monkeypatch):
    # The chains a sweep builds, the targets they count and the
    # perturbation searches they run: a change that adds reruns or
    # chains, or shares fewer targets, fails here even where the timings
    # hide it.  Projections count the builds a chain's cache misses.
    methods = ((reduction.Chain, "__init__"), (reduction.Chain, "counts"),
               (reduction.Chain, "perturb"),
               (reduction.Projection, "__init__"))
    calls = {}
    for owner, name in methods:
        key, method = f"{owner.__name__}.{name}", getattr(owner, name)
        calls[key] = 0

        def counted(*args, _key=key, _method=method):
            calls[_key] += 1
            return _method(*args)
        monkeypatch.setattr(owner, name, counted)
    report = run_campaign(_sweep((L1, L2, LINF, POLY2), 2, GRID0, 3))
    assert report.verified and not report.errors
    # A representative counts only the upper half of its targets, 0 and
    # the positive sums, each for itself and its negation.
    assert calls == {"Chain.__init__": 337, "Chain.counts": 1013,
                     "Chain.perturb": 378, "Projection.__init__": 980}


def test_orbit_sweep_is_the_same_for_any_worker_count():
    cfg = _sweep((L1, LINF), 2, ORBIT_GRIDS[1], 3)
    text = format_campaign_report(_same_as_reference(cfg))
    assert format_campaign_report(run_campaign(cfg.replace(workers=2))) == text


def test_a_fault_reruns_the_sweep_unreduced(monkeypatch):
    # Every representative of the symmetric grid holds only vectors above
    # their negation, and the perturbation search is made to fail on
    # exactly such multisets.  The first orbit task that raises ends the
    # orbit pass, and the sweep reruns every target of every multiset on
    # its own chain: so multisets with a vector below its negation pass,
    # and the others record the error at their own index.
    perturb = reduction.Chain.perturb

    def representatives_fail(chain, *args):
        if all(v >= tuple(-c for c in v) for v in chain.scaled):
            raise CertificateError("perturbation refused on a representative")
        return perturb(chain, *args)
    monkeypatch.setattr(reduction.Chain, "perturb", representatives_fail)
    calls = []

    def counted(*args):
        calls.append(args)
        return _task_orbit(*args)
    monkeypatch.setattr(campaign, "_task_orbit", counted)
    for norm, errors, ran, tasks in ((L1, 17, 2, 5), (POLY2, 16, 22, 39)):
        cfg = _sweep((norm,), 2, GRID, 3)
        assert len(list(_build_tasks(cfg))) == tasks
        calls.clear()
        report = _same_as_reference(cfg)
        # No orbit task runs after the first fault.
        assert len(calls) == ran
        assert report.status == "incomplete"
        assert len(report.errors) == errors
        assert {message for _, message in report.errors} == {
            "perturbation refused on a representative"}


def test_the_image_of_a_certificate_certifies_each_member():
    # For every member +-g v_i of an orbit and every target g u, g times
    # the representative's witness at u, perturbed or not, passes the
    # chain's certificate on the member's own vectors with the
    # representative's scale and k, and both counts the sweep tallies
    # for the member are its own, by brute force.
    perturbed = moved = 0
    for norm, d, grid, n_max in ([(nm, 2, GRID0, 3)
                                  for nm in (L1, L2, LINF, POLY2)]
                                 + [(POLY3D, 3, (F(-1), F(0), F(1)), 3)]):
        _, universe = _universe(norm, d, grid)
        group = _Classes(universe, d, norm).group
        for task in _build_tasks(_sweep((norm,), d, grid, n_max)):
            _, _, den, rep, _ = task
            chain = reduction.Chain(norm, den, rep)
            n = len(rep)
            located = []
            for u, count in scaled_sums(chain.scaled):
                proj, t, k, found = chain.locate(u)
                sign = 1 if t == dot(u, proj.w) else -1
                w = tuple(sign * c for c in proj.w)
                located.append((u, count, w, proj.s, k, proj.count(t),
                                found is not None))
            members = orbit_members(chain.scaled, _mirrored(rep, universe),
                                    group)
            # one g for each sign orbit of the orbit
            moved += len({g for g, _ in members}) - 1
            for g, member in members:
                # each member is a valid instance, whose own integer form
                # is member over den, divided by their common factor
                own = Instance(rational_vectors(member, den), (F(0),) * d,
                               norm)
                assert tuple(tuple(den // own.den * c for c in v)
                             for v in own.scaled) == member
                for u, count, w, s, k, projected, found in located:
                    x, gw = act(g, u), act(g, w)
                    coefficients = [dot(v, gw) for v in member]
                    t = dot(x, gw)
                    assert ceil_norm_over(norm, x, den) == k
                    assert reduction.certificate_failure(
                        s, chain.squared, coefficients, t, 1, k) is None, (
                        norm, member, x)
                    # in the member's integer units, den times its own
                    # vectors, where the atom is the same
                    assert count == enumerate_atom_nd(member, x) * 2 ** n
                    assert projected == enumerate_atom_1d(
                        coefficients, t) * 2 ** n
                    perturbed += found
    assert perturbed > 1000 and moved > 100


def _mirror_cases():
    """(norm, d, grid) of every sweep that the orbit and reference tests
    run."""
    for grid in ORBIT_GRIDS:
        for d in (1, 2, 3):
            for norm in (L1, L2, LINF) + ((POLY2,) if d == 2 else ()):
                yield norm, d, grid
    for norm, d, grid, _ in SWEEPS:
        yield norm, d, grid


def test_the_integer_universe_is_the_rational_filter():
    # A sweep filters grid^d in the grid's integer units; divided by den,
    # its universe is the in_unit_ball filter of grid^d, in its order,
    # on every sweep the orbit, reference and group tests run.
    cases = list(_mirror_cases()) + [
        case[:3] for case in GROUP_CASES + list(PERMUTATION_CASES)]
    for norm, d, grid in cases:
        den, universe = _universe(norm, d, grid)
        assert rational_vectors(universe, den) == tuple(
            p for p in product(sorted(grid), repeat=d)
            if not is_zero(p) and in_unit_ball(norm, p)), (norm, d, grid)


def test_a_representative_chain_is_its_instance_chain_scaled():
    # A representative's chain runs over the grid's den, a multiple r of
    # the den its Instance would take, so its vectors and targets are r
    # times the instance's.  At every upper-half target both chains give
    # the same counts, perturb alike, and project along one direction:
    # on the orbit tests' sweeps at n <= 3, and on the zero grids of the
    # reference sweeps, where most perturbations run.
    scaled = perturbed = 0
    mixed = (F(-1), F(-1, 2), F(0), F(1, 3), F(1))
    for norm, d, grid in list(_mirror_cases()) + [
            (nm, 2, mixed) for nm in (L1, L2, LINF, POLY2)]:
        for _, _, den, rep, _ in _build_tasks(_sweep((norm,), d, grid, 3)):
            chain = reduction.Chain(norm, den, rep)
            inst = Instance(rational_vectors(rep, den), (F(0),) * d, norm)
            own = reduction.Chain(inst.norm, inst.den, inst.scaled)
            r = den // inst.den
            sums = scaled_sums(rep)
            for u, _ in sums[len(sums) // 2:]:
                assert all(c % r == 0 for c in u)
                x = tuple(c // r for c in u)
                assert chain.counts(u) == own.counts(x), (norm, rep, u)
                (a, _, _, found), (b, _, _, own_found) = (
                    chain.locate(u), own.locate(x))
                assert (found is None) == (own_found is None), (norm, rep, u)
                j = next(j for j, c in enumerate(a.w) if c)
                assert [F(c, a.w[j]) for c in a.w] == [
                    F(c, b.w[j]) for c in b.w], (norm, rep, u)
                scaled += r > 1
                perturbed += r > 1 and found is not None
    assert scaled > 2000 and perturbed > 500, (scaled, perturbed)


def test_a_fault_free_sweep_builds_no_instance(monkeypatch):
    # The orbit pass stays in integers: the planar sweep builds no
    # Instance, and the campaign module has no rational ball test.
    built = []
    init = Instance.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(Instance, "__init__", counted)
    report = run_campaign(_sweep((L1, L2, LINF, POLY2), 2, GRID, 4))
    assert report.status == "verified" and report.instances == 63_422
    assert built == []
    assert not hasattr(campaign, "in_unit_ball")
    make_instance([(1, 0)], (0, 0), L1)
    assert len(built) == 1


def test_the_mirror_of_a_certificate_certifies_the_negated_target():
    # The sweep runs a representative's chain on the upper half of its
    # sum table alone, 0 and the positive sums, and tallies each u != 0
    # for -u too.  At every such u, -w for u's witness w, perturbed or
    # not, passes the chain's certificate at -u with u's projected target
    # <-u, -w> = <u, w>, scale and k, and both counts at -u along it are
    # its own, by brute force.  The chain's own witness at -u need not be
    # -w where witnesses tie (l1 at (1, 0) takes (1, 1), and at (-1, 0)
    # takes (-1, 1)), so only the count allowed at -u is u's; the chain
    # holds there too.
    mirrored = perturbed = 0
    for norm, d, grid in _mirror_cases():
        for task in _build_tasks(_sweep((norm,), d, grid, 3)):
            chain = reduction.Chain(norm, *task[2:4])
            n = len(chain.scaled)
            sums = scaled_sums(chain.scaled)
            table = dict(sums)
            for u, count in sums[len(sums) // 2:]:
                if not any(u):
                    continue
                neg = _neg(u)
                projected, allowed = chain.counts(neg)
                assert count <= projected <= allowed == chain.counts(u)[1]
                proj, t, k, found = chain.locate(u)
                sign = 1 if t == dot(u, proj.w) else -1
                mirror = tuple(-sign * c for c in proj.w)
                coefficients = [dot(v, mirror) for v in chain.scaled]
                assert dot(neg, mirror) == t
                assert ceil_norm_over(norm, neg, chain.den) == k
                assert reduction.certificate_failure(
                    proj.s, chain.squared, coefficients, t, 1, k) is None, (
                    norm, task[3], neg)
                assert table[neg] == count == enumerate_atom_nd(
                    chain.scaled, neg) * 2 ** n
                assert proj.count(t) == enumerate_atom_1d(
                    coefficients, t) * 2 ** n
                mirrored += 1
                perturbed += found is not None
    assert mirrored > 10_000 and perturbed > 1000, (mirrored, perturbed)


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


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_vectors_outside_the_unit_ball_fault_in_a_worker(monkeypatch):
    # The sweep's universe filter, made to keep vectors up to norm 3/2,
    # runs in the parent process; each orbit task re-checks its
    # representative in integers, so one beyond norm 1 faults the orbit
    # pass in the task, which at two workers runs in this process or in
    # its one forked worker.
    # The sweep reruns unreduced, where each instance checks its own
    # vectors, and records one error per target of each multiset that
    # holds one.
    ceil_over = campaign.ceil_norm_over

    def wider(norm, u, den):
        return ceil_over(norm, tuple(2 * c for c in u), 3 * den)
    monkeypatch.setattr(campaign, "ceil_norm_over", wider)
    monkeypatch.setattr(oracles, "in_unit_ball", lambda norm, v: in_unit_ball(
        norm, tuple(F(2, 3) * c for c in v)))
    for norm in (L1, L2, POLY2):
        cfg = _sweep((norm,), 2, GRID, 2)
        ran = []

        def recorded(*task):
            ran.append((task, _task_orbit(*task)))
            return ran[-1][1]
        with monkeypatch.context() as m:
            m.setattr(campaign, "_task_orbit", recorded)
            report = _same_as_reference(cfg)
        # The orbit pass ends at the first representative that holds a
        # vector outside the ball, and only there.
        (_, den, rep, _), res = ran[-1]
        assert res is None and any(ceil_over(norm, u, den) > 1 for u in rep)
        assert all(res is not None for _, res in ran[:-1])
        assert report.status == "incomplete"
        assert report.errors and all(
            message.endswith("lies outside the unit ball")
            for _, message in report.errors)
        # Each pass forks one worker, which ends with it.
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: 2)
        assert (format_campaign_report(run_campaign(cfg.replace(workers=2)))
                == format_campaign_report(report))
        _no_child_is_left()


def test_extremal_campaign_max_ratio_counts_tight_instances():
    cfg = CampaignConfig(mode="extremal", norms=(L2,), n_min=1, n_max=3)
    report = run_campaign(cfg)
    assert report.tight == report.instances == 12
    assert report.max_ratio == 1
    assert "max_ratio = 1\n" in format_campaign_report(report)


def test_a_zero_allowed_count_has_no_ratio():
    # k > n: the bound is 0, and a violating count exceeds it.
    res = CampaignReport("random")
    instance = make_instance([(1, 0)], (3, 0), L2)
    report = VerificationReport(
        p_exact=F(1, 2), p_projected=F(1, 2), bound=F(0), k=3, delta=0,
        chain_holds=False, tight=False, perturbed=False)
    campaign._tally(res, 0, instance, report)
    campaign._tally_counts(res, 1, 0, 1)
    assert res.violations == [(0, instance, report)]
    assert (res.tight, res.max_ratio) == (0, 0)


def test_campaign_shards_are_clamped_to_tasks_and_cores(monkeypatch):
    sizes = []

    def in_process(build, tasks, workers):
        """Runs the tasks in this process and records the shard count."""
        sizes.append(workers)
        return (campaign._run_task(task) for task in tasks)

    monkeypatch.setattr(campaign, "_shards", in_process)
    cfg = CampaignConfig(mode="random", norms=(L2,), n_max=3, seed=4,
                         budget=5 * 64, workers=50)
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    expected = format_campaign_report(run_campaign(cfg.replace(workers=1)))
    assert sizes == [1]
    assert format_campaign_report(run_campaign(cfg)) == expected
    assert sizes == [1, 3]                   # cores
    run_campaign(cfg.replace(budget=2 * 64))
    assert sizes == [1, 3, 2]                # tasks
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: None)
    assert format_campaign_report(run_campaign(cfg)) == expected
    assert sizes == [1, 3, 2, 1]             # unknown core count: no fork
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 3)
    monkeypatch.delattr(campaign.os, "fork")
    assert format_campaign_report(run_campaign(cfg)) == expected
    assert sizes == [1, 3, 2, 1, 1]          # no os.fork: one process


# Five tasks of 64 instances: at two workers, tasks 0, 2 and 4 run in
# the calling process, tasks 1 and 3 in its one forked worker, worker 1.
FORKED = CampaignConfig(mode="random", norms=(L2,), n_max=3, seed=4,
                        budget=5 * 64, workers=2)


def _patched_task(monkeypatch, actions, cores=2) -> list:
    """cores cores whatever the host has, and actions[start]() run first
    in the random task from start on.  The list returned gets (task
    number, pid) for each task that runs in this process."""
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: cores)
    task = campaign._task_random
    ran: list = []

    def patched(cfg, start, count):
        ran.append((start // 64, os.getpid()))
        actions.get(start, lambda: None)()
        return task(cfg, start, count)
    monkeypatch.setattr(campaign, "_task_random", patched)
    return ran


def test_the_caller_runs_every_other_task_and_forks_once(monkeypatch):
    ran = _patched_task(monkeypatch, {})
    fork = os.fork
    forks = []

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(campaign.os, "fork", counted)
    assert run_campaign(FORKED).instances == 5 * 64
    assert forks == [os.getpid()]
    assert ran == [(0, os.getpid()), (2, os.getpid()), (4, os.getpid())]
    _no_child_is_left()


def test_an_exception_in_a_worker_task_reaches_the_caller(monkeypatch):
    def refuse():
        raise ValueError("task 3 refused")
    _patched_task(monkeypatch, {3 * 64: refuse})
    with pytest.raises(ValueError, match="task 3 refused"):
        run_campaign(FORKED)
    _no_child_is_left()


def test_a_killed_worker_is_a_capacity_error(monkeypatch, tmp_path, capsys):
    # At three workers, worker 1 kills itself at task 1 while worker 2
    # sleeps in task 2: the calling process reports the dead worker
    # without waiting for its live sibling, and leaves no child.
    def die():
        os.kill(os.getpid(), signal.SIGKILL)
    _patched_task(monkeypatch, {64: die, 2 * 64: lambda: time.sleep(60)},
                  cores=3)
    three = FORKED.replace(workers=3)
    started = time.perf_counter()
    with pytest.raises(CapacityError, match=(
            r"campaign worker 1 ended before its tasks did "
            r"\(killed by signal 9\)")):
        run_campaign(three)
    assert time.perf_counter() - started < 30
    _no_child_is_left()
    config = tmp_path / "forked.campaign"
    config.write_text(format_campaign_config(three))
    assert cli_main(["campaign", str(config)]) == 3
    assert "campaign worker 1 ended" in capsys.readouterr().err
    _no_child_is_left()


def test_campaign_tasks_are_generated_as_they_run():
    # linf on the planar grid at n <= 7 has 245,156 vector multisets in
    # 6,434 sign orbits and 1,802 orbits of the group, one task each.
    cfg = CampaignConfig(mode="exhaustive-grid", norms=(LINF,), n_min=1,
                         n_max=7, d_min=2, d_max=2, grid=GRID)
    tracemalloc.start()
    try:
        first = next(iter(_build_tasks(cfg)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (1, -2) over den 2, the vector (1/2, -1), reaches (+-1/2, +-1) and
    # (+-1, +-1/2): 8 multisets
    assert first == (_task_orbit, LINF, 2, ((1, -2),), 8)
    assert peak < 2 ** 20


def test_campaign_reports_are_deterministic_across_workers(monkeypatch):
    # Two tasks: at workers 3, this process and one forked worker, which
    # ends with the run.
    monkeypatch.setattr(campaign.os, "cpu_count", lambda: 4)
    cfg = CampaignConfig(mode="random", norms=(L1, L2, LINF),
                         n_min=1, n_max=7, d_min=1, d_max=2,
                         seed=99, budget=90)
    texts = {format_campaign_report(run_campaign(cfg.replace(workers=w)))
             for w in (1, 1, 3)}
    assert len(texts) == 1
    _no_child_is_left()


def test_random_campaign_draws_only_dimension_compatible_norms():
    # A fixed-dimension facet norm must not burn budget on mismatched d.
    poly = NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)])
    cfg = CampaignConfig(mode="random", norms=(L1, L2, LINF, poly),
                         n_min=1, n_max=8, d_min=1, d_max=3,
                         seed=5150, budget=150)
    report = run_campaign(cfg)
    assert report.verified and not report.errors
    assert report.instances == 150

    only_poly = cfg.replace(norms=(poly,), d_min=3, d_max=3, budget=5)
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
    with pytest.raises(InputError, match="bad n range '1..b': not an integer"):
        parse_campaign_config("mode = random\nnorms = l1\nn = 1..b\n")
    with pytest.raises(InputError, match="bad d range '1..x': not an integer"):
        parse_campaign_config("mode = random\nnorms = l1\nd = 1..x\n")
    # The reason survives the rewrap: a seed longer than int() converts.
    with pytest.raises(InputError, match="bad seed: integer literal longer "
                       f"than {sys.get_int_max_str_digits()} digits"):
        parse_campaign_config(f"mode = random\nnorms = l1\nseed = {'7' * 5000}\n")
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


def test_campaign_config_is_a_frozen_record_validated_on_construction():
    cfg = CampaignConfig(mode="random", norms=(L1,), budget=3)
    more = cfg.replace(workers=2)
    assert more == CampaignConfig("random", (L1,), budget=3, workers=2)
    assert (cfg.workers, more.workers) == (1, 2) and more != cfg
    assert cfg.replace() == cfg and hash(cfg.replace()) == hash(cfg)
    assert repr(cfg).startswith("CampaignConfig(mode='random', norms=(")
    with pytest.raises(InputError, match="workers must be positive"):
        cfg.replace(workers=0)
    with pytest.raises(AttributeError):
        cfg.workers = 2
    # A worker receives its config pickled, and a pickle rebuilds it
    # through the constructor, so an invalid one never runs there.
    assert pickle.loads(pickle.dumps(more)) == more
    bad = object.__new__(CampaignConfig)
    for name, value in zip(CampaignConfig._args, (*cfg._key()[:-1], 0)):
        object.__setattr__(bad, name, value)
    with pytest.raises(InputError, match="workers must be positive"):
        pickle.loads(pickle.dumps(bad))


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
    # An exhaustive-grid sweep lists d len(grid)^d coordinates at its
    # largest d, at most 2^20: d = 16 on two values, and one value at any
    # d up to 2^20, whatever the power would be.
    limit = campaign.GRID_COORDINATES
    assert limit == 2 ** 20
    for grid, d_max, fits in (((F(-1), F(1)), 16, True),
                              ((F(-1), F(1)), 17, False),
                              ((F(1),), limit, True),
                              ((F(1),), limit + 1, False),
                              (GRID0, 10 ** 100, False)):
        make = lambda: CampaignConfig(mode="exhaustive-grid", norms=(L1,),
                                      grid=grid, d_min=1, d_max=d_max)
        if fits:
            make()
        else:
            with pytest.raises(CapacityError, match=f"d = {d_max} exceeds"):
                make()


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

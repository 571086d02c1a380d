"""The projection pipeline: instance validation, dual-witness projection,
perturbation, the verified chain, and instance/report text forms."""

import math
import random
from fractions import Fraction as F

import pytest

from littlewood_offord import (InputError, Instance, NormSpec,
                               PerturbationError, atom_1d, ceil_norm, dot,
                               dual_witness, format_instance, format_report,
                               gen_random, lo_bound, make_instance, parse_norm,
                               parse_instance, perturb_witness, project,
                               verify_instance)
from oracles import enumerate_atom_1d, enumerate_atom_nd, pascal_binomial

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
POLY3 = NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)])
ALL_EXACT = (L1, L2, LINF, POLY3)


def test_instance_validation():
    make_instance([(1, 0), (0, 1)], (1, 1), L2)
    with pytest.raises(InputError):
        make_instance([], (1, 1), L2)
    with pytest.raises(InputError):
        make_instance([(0, 0), (1, 0)], (1, 1), L2)      # zero vector
    with pytest.raises(InputError):
        make_instance([(1, F(1, 10 ** 6))], (0, 0), L2)  # barely outside
    with pytest.raises(InputError):
        make_instance([(1, 0), (1,)], (0, 0), L2)        # mixed dimensions
    with pytest.raises(InputError):
        make_instance([(1, 0)], (0,), L2)                # target dimension
    with pytest.raises(InputError):
        make_instance([(F(1, 2),)], (0,), POLY3)         # norm dimension


def test_instance_accepts_exact_boundary():
    make_instance([(F(3, 5), F(4, 5))], (0, 0), L2)      # squared norm = 1
    make_instance([(F(1, 2), F(-1, 2))], (0, 0), L1)
    make_instance([(1, -1)], (0, 0), LINF)


def test_lp_instance_is_rejected():
    # lp norms have no exact arithmetic, so no lp instance can be built.
    with pytest.raises(InputError, match="unknown norm spec"):
        make_instance([(1, 0), (F(1, 2), F(1, 2))], (1, 0), parse_norm("lp:3"))
    with pytest.raises(InputError, match="unknown norm kind"):
        make_instance([(1, 0)], (1, 0), NormSpec("lp"))


def test_project_axis_pair_l2():
    inst = make_instance([(1, 0), (0, 1)], (1, 1), L2)
    proj = project(inst)
    assert proj.coefficients == (F(1), F(1))
    assert proj.target_value == F(2)
    assert proj.scale.kind == "squared" and proj.scale.value == F(2)
    assert proj.k == 2
    assert not proj.perturbed


def test_project_preserves_norm_ceiling():
    rng = random.Random(2200)
    for norm in ALL_EXACT:
        for _ in range(40):
            inst = gen_random(rng.getrandbits(32), rng.randint(1, 6), 2,
                              norm, 4)
            proj = project(inst)
            assert proj.k == ceil_norm(norm, inst.target)
            assert all(c != 0 for c in proj.coefficients)


def test_projected_coefficients_stay_in_unit_interval():
    rng = random.Random(2201)
    for norm in ALL_EXACT:
        for _ in range(40):
            inst = gen_random(rng.getrandbits(32), rng.randint(1, 6), 2,
                              norm, 4)
            proj = project(inst)
            if proj.scale.kind == "squared":
                assert all(c * c <= proj.scale.value
                           for c in proj.coefficients)
            else:
                assert all(abs(c) <= proj.scale.value
                           for c in proj.coefficients)


def test_projection_never_loses_probability():
    # The projected 1-d atom dominates the exact nd atom: projecting along
    # any direction merges events, never splits them.
    rng = random.Random(2202)
    for norm in ALL_EXACT:
        for _ in range(25):
            inst = gen_random(rng.getrandbits(32), rng.randint(1, 5), 2,
                              norm, 3)
            proj = project(inst)
            p_exact = enumerate_atom_nd(inst.vectors, inst.target)
            p_proj = enumerate_atom_1d(proj.coefficients, proj.target_value)
            assert p_exact <= p_proj


def test_atom_is_scale_invariant():
    # Unscaled projection is sound because the atom event does not change
    # when both sides are multiplied by the same positive rational.
    rng = random.Random(2203)
    for _ in range(40):
        n = rng.randint(1, 8)
        a = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        t = F(rng.randint(-5, 5), rng.randint(1, 3))
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert atom_1d(a, t) == atom_1d([c * q for q in a], c * t)


def test_perturbation_example_linf():
    inst = make_instance([(0, 1)], (1, 0), LINF)
    proj = project(inst)
    assert proj.perturbed
    # first eta = 1/8 works with direction +e_2: w' = (7/8, 1/8)
    assert proj.coefficients == (F(1, 8),)
    assert proj.target_value == F(7, 8)
    assert proj.k == 1
    report = verify_instance(inst)
    assert report.chain_holds and report.perturbed
    assert report.p_exact == 0 and report.p_projected == 0


def test_perturb_witness_checks_all_three_conditions():
    inst = make_instance([(0, 1), (1, 0), (F(1, 2), F(1, 2))], (1, 0), LINF)
    w = dual_witness(LINF, inst.target)
    assert dot(inst.vectors[0], w.direction) == 0
    wp = perturb_witness(inst, w)
    coeffs = [dot(v, wp.direction) for v in inst.vectors]
    assert all(c != 0 for c in coeffs)
    assert all(abs(c) <= wp.scale.value for c in coeffs)
    assert project(inst).k == 1


def test_perturbation_clears_two_hyperplanes_in_d3():
    # w = x is orthogonal to (-1/2, 1/2, 0), (0, 0, 3/4) and (0, 0, -1).
    # No single +-e_j or v_i direction leaves both hyperplanes, so only
    # the moment-curve pass z(t) = (1, t, t^2) finds a witness.
    inst = parse_instance(
        "dimension = 3\nnorm = l2\n"
        "vectors = 3/4,1/2,0; 3/4,1/4,0; -1/2,-1/4,0; -1/2,1/2,0; 0,0,3/4; "
        "3/4,-1/2,0; 0,0,-1; -1/2,3/4,0\n"
        "target = -1/4,-1/4,0\n")
    proj = project(inst)
    assert proj.perturbed and proj.k == 1
    assert all(c != 0 for c in proj.coefficients)
    assert all(c * c <= proj.scale.value for c in proj.coefficients)
    report = verify_instance(inst)
    assert report.chain_holds and report.perturbed
    assert report.p_exact == enumerate_atom_nd(inst.vectors, inst.target)
    assert report.p_projected == enumerate_atom_1d(proj.coefficients,
                                                   proj.target_value)


def test_batch_of_one_in_the_meet_in_the_middle_range():
    # n = 26 is past the direct tables, so both counts run meet in the
    # middle.  The linf witness e_1 of x = (1, 0) is orthogonal to
    # (0, 1/2); the schedule's first acceptable candidate is
    # w' = (7/8, 1/8), which projects (1/2, 0) to 7/16, (0, 1/2) to 1/16
    # and x to 7/8.  With a plus signs among 12 copies of (1/2, 0) and
    # b among 14 copies of (0, 1/2), S = x needs (a, b) = (7, 7), and the
    # projected sum 7/8 also takes (a, b) = (6, 14) and (8, 0).
    vectors = [(F(1, 2), 0)] * 12 + [(0, F(1, 2))] * 14
    inst = make_instance(vectors, (1, 0), LINF)
    proj = project(inst)
    assert proj.perturbed and proj.k == 1
    assert proj.coefficients == (F(7, 16),) * 12 + (F(1, 16),) * 14
    assert proj.target_value == F(7, 8)
    report = verify_instance(inst)
    c = pascal_binomial
    assert report.perturbed and report.k == 1
    assert report.p_exact == F(c(12, 7) * c(14, 7), 2 ** 26)
    assert report.p_projected == F(c(12, 7) * c(14, 7) + c(12, 6)
                                   + c(12, 8), 2 ** 26)
    assert report.bound == F(c(26, 14), 2 ** 26)
    assert report.chain_holds and not report.tight


def test_zero_target_projects_with_zero_value():
    inst = make_instance([(1, 0), (0, 1)], (0, 0), L2)
    proj = project(inst)
    assert proj.perturbed                      # e_1 witness hits <v_2, .> = 0
    assert proj.target_value == 0
    assert proj.k == 0
    report = verify_instance(inst)
    assert report.chain_holds
    assert report.bound == F(1, 2)


def test_verify_axis_pair_is_tight():
    report = verify_instance(make_instance([(1, 0), (0, 1)], (1, 1), L2))
    assert report.p_exact == F(1, 4)
    assert report.p_projected == F(1, 4)
    assert report.bound == F(1, 4)
    assert report.k == 2 and report.delta == 0
    assert report.chain_holds and report.tight and not report.perturbed


def test_verify_chain_on_seeded_instances():
    rng = random.Random(2204)
    for norm in ALL_EXACT:
        for _ in range(40):
            inst = gen_random(rng.getrandbits(32), rng.randint(1, 7),
                              rng.randint(1, 3) if norm.kind != "poly" else 2,
                              norm, 4)
            report = verify_instance(inst)
            assert report.chain_holds
            assert report.p_exact <= report.p_projected <= report.bound


def test_verify_rejects_float_mode_norm():
    # An lp instance file is refused while parsing, before verification.
    text = format_instance(make_instance([(1, 0)], (1, 0), L2))
    with pytest.raises(InputError, match="unknown norm spec"):
        parse_instance(text.replace("norm = l2", "norm = lp:3"))


def test_one_dimensional_bound_on_unit_coefficients():
    # the 1-d inequality the projection lands on: P(sum = t) <= lo_bound
    rng = random.Random(2205)
    for _ in range(60):
        n = rng.randint(1, 10)
        a = [F(rng.choice([c for c in range(-8, 9) if c]), 8)
             for _ in range(n)]
        table_targets = {sum(s * q for s, q in zip(signs, a))
                         for signs in [[rng.choice((-1, 1)) for _ in range(n)]
                                       for _ in range(8)]}
        for t in table_targets:
            assert atom_1d(a, t) <= lo_bound(n, math.ceil(abs(t)))


def test_instance_text_round_trip():
    inst = make_instance([(1, 0), (0, 1), (F(1, 2), F(-1, 2))], (F(3, 2), 0), L1)
    text = format_instance(inst)
    assert text.splitlines()[0] == "# lo-instance v1"
    assert parse_instance(text) == inst

    poly_inst = make_instance([(F(1, 2), 0)], (F(1, 2), F(1, 2)), POLY3)
    assert parse_instance(format_instance(poly_inst)) == poly_inst


def test_instance_text_rejects_malformed():
    good = format_instance(make_instance([(1, 0)], (1, 0), L2))
    with pytest.raises(InputError):
        parse_instance(good.replace("dimension = 2", ""))
    with pytest.raises(InputError):
        parse_instance(good.replace("dimension = 2", "dimension = 3"))
    with pytest.raises(InputError):
        parse_instance(good.replace("norm = l2", "norm = l9"))
    with pytest.raises(InputError):
        parse_instance("vectors = 1,0\ntarget = 1,0\n")
    with pytest.raises(InputError):
        parse_instance(good.replace("vectors = 1,0", "vectors ="))
    with pytest.raises(InputError):
        parse_instance(good + "bogus line without equals\n")
    with pytest.raises(InputError, match="line 6: duplicate key 'vectors'"):
        parse_instance(good + "vectors = 0,1\n")
    for bad in ("\u0662", "+2", "0_2", " 2 2", "\uff12"):
        with pytest.raises(InputError, match="bad dimension"):
            parse_instance(good.replace("dimension = 2", f"dimension = {bad}"))


def test_report_text_layout():
    inst = make_instance([(1, 0), (0, 1)], (1, 1), L2)
    text = format_report(verify_instance(inst), inst)
    lines = text.splitlines()
    assert lines[0] == "# lo-report v1"
    assert "p_exact = 1/4" in lines
    assert "bound = 1/4" in lines
    assert "chain_holds = true" in lines
    assert "tight = true" in lines
    assert "n = 2" in lines

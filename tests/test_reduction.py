"""The projection pipeline: instance validation, dual-witness projection,
perturbation, the verified chain, and instance/report text forms."""

import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from littlewood_offord import (InputError, Instance, NormSpec,
                               ProjectedInstance, VerificationReport,
                               atom_1d, ceil_norm, dot,
                               dual_witness, format_instance, format_report,
                               gen_random, in_unit_ball, lo_bound,
                               make_instance, parse_norm, parse_instance,
                               perturb_witness, project, vector,
                               verify_instance)
from littlewood_offord.concentration import scaled_vectors
from littlewood_offord.norms import witness_target
from oracles import (enumerate_atom_1d, enumerate_atom_nd, outcome,
                     pascal_binomial, reference_perturb_witness,
                     reference_verify)

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
    with pytest.raises(InputError, match="exact rationals"):
        Instance(((0.5, 0),), (F(1, 2), F(0)), L2)       # a float coordinate
    with pytest.raises(InputError, match="target coordinates"):
        Instance(((F(1, 2), F(0)),), (0.1, 0), L2)       # a float target
    with pytest.raises(InputError, match="target coordinates"):
        Instance(((F(1, 2), F(0)),), ("1/2", 0), L2)     # a str target


def test_instance_accepts_exact_boundary():
    make_instance([(F(3, 5), F(4, 5))], (0, 0), L2)      # squared norm = 1
    make_instance([(F(1, 2), F(-1, 2))], (0, 0), L1)
    make_instance([(1, -1)], (0, 0), LINF)


def _accepted(vectors, norm) -> bool:
    try:
        make_instance(vectors, (0,) * len(vectors[0]), norm)
    except InputError:
        return False
    return True


def test_ball_check_matches_the_rational_reference():
    # Points exactly on each unit sphere, the same points one lattice
    # step (1/1000) further out, and seeded rational points around it.
    sphere = {L1: [(F(1, 2), F(-1, 2)), (F(-1, 3), F(2, 3))],
              L2: [(F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))],
              LINF: [(1, F(-1, 3)), (F(2, 7), -1)],
              POLY3: [(F(1, 3), F(2, 3)), (F(-1, 2), -1 + F(1, 2))]}
    step = F(1, 1000)
    for norm, points in sphere.items():
        for p in map(vector, points):
            assert in_unit_ball(norm, p) and _accepted([p], norm)
            j = max(range(2), key=lambda i: abs(p[i]))
            out = p[:j] + (p[j] + (step if p[j] > 0 else -step),) + p[j + 1:]
            assert not in_unit_ball(norm, out) and not _accepted([out], norm)
    rng = random.Random(2210)
    for norm in ALL_EXACT:
        for _ in range(400):
            den = rng.choice((1, 2, 3, 5, 7, 12, 1000))
            v = vector(F(rng.randint(-den - 2, den + 2), den)
                       for _ in range(2))
            if any(v):
                assert _accepted([v], norm) == in_unit_ball(norm, v), (norm, v)
                # a second vector's denominator changes den, not the answer
                w = (F(1, 9), 0)
                assert _accepted([w, v], norm) == in_unit_ball(norm, v)


def test_instance_checks_each_vector_in_order():
    # Per vector: dimension, then zero, then the ball; the first faulty
    # vector names the error.
    cases = [([(2, 0), (0, 0)], "vector 0 lies outside the unit ball"),
             ([(0, 0), (2, 0)], "vector 0 is zero"),
             ([(1, 0), (0, 0), (2, 0)], "vector 1 is zero"),
             ([(2, 0), (1,)], "vector 0 lies outside the unit ball"),
             ([(1,), (2, 0)], "vector 0 has dimension 1, target has 2"),
             ([(F(1, 2), 0), (1, 2, 3)], "vector 1 has dimension 3, "
                                         "target has 2")]
    for vectors, message in cases:
        with pytest.raises(InputError, match=f"^{message}$"):
            make_instance(vectors, (0, 0), L2)


def test_instance_stores_its_integer_form():
    inst = make_instance([(F(1, 2), F(-1, 3)), (F(1, 4), 0), (0, 1)],
                         (F(1, 6), 0), L1)
    assert (inst.den, inst.scaled) == scaled_vectors(inst.vectors)
    assert (inst.den, inst.scaled) == (12, ((6, -4), (3, 0), (0, 12)))
    # den and scaled stay out of equality, hashing and repr.
    same = make_instance([(F(2, 4), F(-1, 3)), (F(1, 4), 0), (0, 1)],
                         (F(1, 6), 0), L1)
    assert same == inst and hash(same) == hash(inst)
    assert "scaled" not in repr(inst) and "den" not in repr(inst)
    assert inst != make_instance(inst.vectors, (0, 0), L1)
    # Violations cross from the campaign's forked workers pickled.
    back = pickle.loads(pickle.dumps(inst))
    assert back == inst and hash(back) == hash(inst)
    assert (back.den, back.scaled) == (inst.den, inst.scaled)
    for name in ("vectors", "target", "norm", "den", "scaled"):
        with pytest.raises(AttributeError):
            setattr(inst, name, None)


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


def test_projection_and_report_records():
    inst = make_instance([(1, 0), (0, 1)], (1, 1), L2)
    proj = project(inst)
    assert isinstance(proj, ProjectedInstance)
    assert (proj.k, proj.perturbed) == (2, False)
    assert ProjectedInstance((F(1),), F(1), proj.scale, 1).perturbed is False
    report = verify_instance(inst)
    assert isinstance(report, VerificationReport)
    assert (report.p_exact, report.bound, report.k) == (F(1, 4), F(1, 4), 2)
    assert report.chain_holds and report.tight and not report.perturbed
    assert pickle.loads(pickle.dumps(report)) == report
    for record, name in ((proj, "k"), (proj, "perturbed"),
                         (report, "chain_holds"), (report, "p_exact")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


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


# w = x is orthogonal to (-1/2, 1/2, 0), (0, 0, 3/4) and (0, 0, -1).
# No single +-e_j or v_i direction leaves both hyperplanes, so only the
# last pass, along z(t) = ||w||_inf (1, t, t^2) / W(t), finds a witness.
TWO_HYPERPLANES_D3 = (
    "dimension = 3\nnorm = l2\n"
    "vectors = 3/4,1/2,0; 3/4,1/4,0; -1/2,-1/4,0; -1/2,1/2,0; 0,0,3/4; "
    "3/4,-1/2,0; 0,0,-1; -1/2,3/4,0\n"
    "target = -1/4,-1/4,0\n")


def test_perturbation_clears_two_hyperplanes_in_d3():
    inst = parse_instance(TWO_HYPERPLANES_D3)
    proj = project(inst)
    assert proj.perturbed and proj.k == 1
    assert all(c != 0 for c in proj.coefficients)
    assert all(c * c <= proj.scale.value for c in proj.coefficients)
    report = verify_instance(inst)
    assert report.chain_holds and report.perturbed
    assert report.p_exact == enumerate_atom_nd(inst.vectors, inst.target)
    assert report.p_projected == enumerate_atom_1d(proj.coefficients,
                                                   proj.target_value)


# At x = 0 the linf witness is e_1, and no +-e_j or v_i direction keeps
# every coefficient nonzero and within the scale.  The last pass takes
# z(2) = (1, 2, 4) / 7, the first z(t) with coefficients 2, -5, -4, 2,
# -6, 3, -1, -2 all nonzero, at eta = 1/8: w' = (50, 2, 4) / 56.
ZERO_TARGET_LINF_D3 = (
    "dimension = 3\nnorm = linf\n"
    "vectors = 0,-1,1; -1,0,-1; 0,0,-1; 0,-1,1; 0,-1,-1; -1,0,1; 1,1,-1; "
    "0,-1,0\n"
    "target = 0,0,0\n")


def test_zero_target_takes_the_last_pass():
    inst = parse_instance(ZERO_TARGET_LINF_D3)
    proj = project(inst)
    assert proj.perturbed and proj.k == 0 and proj.target_value == 0
    assert proj.coefficients == tuple(
        F(c, 56) for c in (2, -54, -4, 2, -6, -46, 48, -2))
    report = verify_instance(inst)
    assert report.chain_holds and report.perturbed
    assert report.p_exact == enumerate_atom_nd(inst.vectors, inst.target)
    assert report.p_projected == enumerate_atom_1d(proj.coefficients,
                                                   proj.target_value)


# The linf witnesses of these targets, -e_1 and e_1, lie on two
# hyperplanes <v_i, .> = 0 that no +-e_j or v_i direction leaves at once
# within the scale: only the last pass certifies them.
LAST_PASS_LINF = (
    "dimension = 3\nnorm = linf\n"
    "vectors = 0,0,1; 0,1,-1; 0,1,0; 1,-1,-1\n"
    "target = -1,1,-1\n",
    "dimension = 4\nnorm = linf\n"
    "vectors = 0,0,0,1; 0,1,-1,0; 1,-1,0,1\n"
    "target = 1,0,-1,0\n")


@pytest.mark.parametrize("text", LAST_PASS_LINF, ids=("d3", "d4"))
def test_two_hyperplanes_under_linf_take_the_last_pass(text):
    inst = parse_instance(text)
    proj = project(inst)
    assert proj.perturbed and proj.k == 1
    assert all(c != 0 and abs(c) <= 1 for c in proj.coefficients)
    report = verify_instance(inst)
    assert report.chain_holds and report.perturbed
    assert report.p_exact == enumerate_atom_nd(inst.vectors, inst.target)
    assert report.p_projected == enumerate_atom_1d(proj.coefficients,
                                                   proj.target_value)


POLY_BY_D = {1: NormSpec.polyhedral([(F(3, 4),)]), 2: POLY3,
             3: NormSpec.polyhedral([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                     (1, 1, 1)]),
             4: NormSpec.polyhedral([(1, 0, 0, 0), (0, 1, 0, 0),
                                     (0, 0, 1, 0), (0, 0, 0, 1),
                                     (1, 1, 1, 1), (1, -1, 0, 0)])}


# The linf witness of x = (-1, 0) is -e_1, orthogonal to (0, 1/2); the
# schedule's first acceptable candidate is w' = (-7/8, 1/8), whose first
# nonzero coordinate is negative.
FLIPPED_KEY_LINF = (
    "dimension = 2\nnorm = linf\n"
    "vectors = 0,1/2; 1/2,1/2; 1/2,0\n"
    "target = -1,0\n")


def test_project_reads_a_witness_with_a_negative_lead():
    # project() divides the chain's integers by a positive unit, so the
    # coefficients and the target are <v_i, w'> and <x, w'> themselves.
    proj = project(parse_instance(FLIPPED_KEY_LINF))
    assert proj.perturbed and proj.k == 1
    assert proj.coefficients == (F(1, 16), F(-3, 8), F(-7, 16))
    assert proj.target_value == F(7, 8)


def _perturbation_cases():
    """Seeded instances at d = 1..4 under all four norm kinds, on grids
    with zero coordinates (so that witnesses often meet a hyperplane),
    with reachable or grid targets, off-lattice targets and x = 0."""
    rng = random.Random(2207)
    for i in range(640):
        d = i % 4 + 1
        kind = ("l1", "l2", "linf", "poly")[i // 4 % 4]
        norm = POLY_BY_D[d] if kind == "poly" else NormSpec(kind)
        inst = gen_random(rng.getrandbits(32), rng.randint(1, 8), d, norm,
                          rng.choice((1, 2, 4)))
        target = inst.target
        if i // 16 % 4 == 1:
            target = tuple(F(rng.randint(-7, 7), rng.choice((3, 5, 7)))
                           for _ in range(d))
        elif i // 16 % 4 == 2:
            target = (F(0),) * d
        yield Instance(inst.vectors, target, norm)
    yield parse_instance(TWO_HYPERPLANES_D3)
    yield parse_instance(ZERO_TARGET_LINF_D3)
    yield parse_instance(FLIPPED_KEY_LINF)
    yield from map(parse_instance, LAST_PASS_LINF)


def test_perturbation_matches_the_rational_reference():
    # The integer search must pick the witness the rational schedule
    # picks, in the same order; project() and verify_instance must agree
    # with brute-force enumeration along it.
    perturbed = 0
    for inst in _perturbation_cases():
        w = dual_witness(inst.norm, vector(witness_target(inst.target)))
        expected = reference_perturb_witness(inst, w)
        assert perturb_witness(inst, w) == expected, inst
        proj = project(inst)
        report = verify_instance(inst)
        assert report.perturbed == proj.perturbed
        if proj.perturbed:
            perturbed += 1
            assert proj.coefficients == tuple(dot(v, expected.direction)
                                              for v in inst.vectors)
            assert proj.target_value == dot(inst.target, expected.direction)
        assert report.p_exact == enumerate_atom_nd(inst.vectors, inst.target)
        assert report.p_projected == enumerate_atom_1d(proj.coefficients,
                                                       proj.target_value)
    assert perturbed >= 100


def test_every_valid_instance_is_certified():
    # Seeded instances at d = 1..4 under all four norm kinds, on grids
    # with zero coordinates, at reachable, zero, grid and small
    # off-lattice targets: none raises, and both counts of the chain
    # equal brute-force enumeration, on integers (scaling both sides by
    # a positive factor leaves the atom event unchanged).
    rng = random.Random(1)
    perturbed = 0
    for i in range(2000):
        d = rng.randint(1, 4)
        kind = ("l1", "l2", "linf", "poly")[i % 4]
        norm = POLY_BY_D[d] if kind == "poly" else NormSpec(kind)
        g = rng.choice((1, 2, 3, 4))
        vectors = gen_random(rng.getrandbits(32), rng.randint(1, 8), d, norm,
                             g).vectors
        which = i // 4 % 4
        if which == 0:
            target = tuple(sum(rng.choice((-1, 1)) * v[j] for v in vectors)
                           for j in range(d))
        elif which == 1:
            target = (F(0),) * d
        elif which == 2:
            target = tuple(F(rng.randint(-2 * g, 2 * g), g) for _ in range(d))
        else:
            target = tuple(F(rng.randint(-1, 1), rng.randint(2, 7))
                           for _ in range(d))
        inst = Instance(vectors, target, norm)
        report = verify_instance(inst)
        proj = project(inst)
        perturbed += proj.perturbed
        assert report.chain_holds, inst
        assert report.p_exact == enumerate_atom_nd(
            [tuple(int(g * c) for c in v) for v in vectors],
            tuple(g * c for c in target)), inst
        m = math.lcm(*(c.denominator for c in proj.coefficients))
        assert report.p_projected == enumerate_atom_1d(
            [int(m * c) for c in proj.coefficients],
            m * proj.target_value), inst
    assert perturbed >= 500


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


def test_verification_keeps_no_tables_between_instances():
    # Each instance of n = 12 vectors in 3-d has a sum table of a few
    # thousand entries; verifying one must not leave its tables behind.
    instances = [gen_random(seed, 12, 3, LINF, 8) for seed in range(21)]
    verify_instance(instances.pop())          # warm up outside the trace
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for inst in instances:
            verify_instance(inst)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(set(instances)) == 20
    assert retained < 2 ** 20


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


def test_verify_matches_full_table_reference():
    # Half-table probes against full tables, on the drawn target (a
    # signed sum half the time), zero, an off-lattice point and a point
    # beyond every sum.
    rng = random.Random(2209)
    for d in (1, 2, 3):
        for norm in (L1, L2, LINF, POLY_BY_D[d]):
            for n in range(1, 13):
                inst = gen_random(rng.getrandbits(32), n, d, norm, 4)
                zero = (F(0),) * d
                for target in (inst.target, zero,
                               tuple(c + F(1, 7) for c in inst.target),
                               (F(n + 1),) + zero[1:]):
                    case = Instance(inst.vectors, target, norm)
                    assert (outcome(verify_instance, case)
                            == outcome(reference_verify, case)), case


def test_single_target_verification_builds_no_full_table():
    # Generic vectors over 10^9 have 2^20 distinct sums at n = 20: a full
    # table of them peaks near 250 MiB, two half tables of 2^10 entries
    # at a few hundred KiB.
    rng = random.Random(2208)
    den = 10 ** 9
    for d in (1, 3):
        vectors = [tuple(F(rng.randint(-den, den), den) for _ in range(d))
                   for _ in range(20)]
        signs = [rng.choice((-1, 1)) for _ in vectors]
        target = tuple(sum(s * v[j] for s, v in zip(signs, vectors))
                       for j in range(d))
        inst = make_instance(vectors, target, LINF)
        tracemalloc.start()
        try:
            report = verify_instance(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.chain_holds and report.p_exact == F(1, 2 ** 20)
        assert peak < 8 * 2 ** 20, peak


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
    # An empty list entry is an error, not a vector to skip.
    for bad in ("1,0;;0,1", "1,0; 0,1;", "; 1,0", "1,0; ;0,1"):
        with pytest.raises(InputError, match="empty entry in the vector list"):
            parse_instance(good.replace("vectors = 1,0", f"vectors = {bad}"))
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

"""Norm evaluation, exact ceilings, closed-form duals, dual witnesses,
and the executable inequality checks."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from littlewood_offord import (InputError, NormSpec, UnsupportedNormOperation,
                               ceil_norm, dot, double_dual_check, dual_eval,
                               dual_spec, dual_witness, format_norm,
                               holder_check, norm_eval, parse_norm)
from littlewood_offord.norms import (ceil_norm_over, integer_witness,
                                     witness_direction, witness_target)

L1, L2, LINF = NormSpec.l1(), NormSpec.l2(), NormSpec.linf()
POLY_CROSS = NormSpec.polyhedral([(1, 0), (1, 1)])

coords = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def vector_pairs(draw, min_d=1, max_d=4):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    strat = st.tuples(*([coords] * d))
    return draw(strat), draw(strat)


def witness_attains(spec, x):
    """<x, w> = ||x|| * s, exactly (squared comparison for l2 scales)."""
    w = dual_witness(spec, x)
    value = dot(x, w.direction)
    nx = norm_eval(spec, x)
    if w.scale.kind == "squared":
        return value >= 0 and value * value == nx.value * w.scale.value
    return value == nx.value * w.scale.value


def test_norm_spec_factories_and_validation():
    assert L1.kind == "l1"
    assert POLY_CROSS.dimension == 2
    with pytest.raises(InputError):
        NormSpec("l7")
    with pytest.raises(InputError):
        NormSpec("lp")                       # no float-mode family
    with pytest.raises(InputError):
        NormSpec.polyhedral([])
    with pytest.raises(InputError):
        NormSpec.polyhedral([(1, 0), (2, 0)])  # rank 1 in dimension 2
    with pytest.raises(InputError):
        NormSpec.polyhedral([(1, 0), (1, 1, 0)])
    with pytest.raises(InputError):
        NormSpec("l1", functionals=((F(1),),))


def test_norm_eval_examples():
    assert norm_eval(L1, (F(3), F(-4))).value == 7
    assert norm_eval(L2, (F(3), F(-4))).value == 25       # exact square
    assert norm_eval(L2, (F(3), F(-4))).kind == "squared"
    assert norm_eval(LINF, (F(3), F(-4))).value == 4
    assert norm_eval(POLY_CROSS, (F(2), F(-3))).value == 2
    with pytest.raises(InputError):
        norm_eval(parse_norm("lp:3"), (F(3), F(-4)))


def test_norm_eval_rejects_bad_dimensions():
    with pytest.raises(InputError):
        norm_eval(POLY_CROSS, (F(1),))
    with pytest.raises(InputError):
        norm_eval(L1, ())


def test_norm_value_zero_detection():
    assert norm_eval(L2, (F(0), F(0))).is_zero()
    assert not norm_eval(L2, (F(0), F(1, 9))).is_zero()


def test_ceil_norm_examples():
    assert ceil_norm(L2, (F(1), F(1))) == 2       # ceil(sqrt(2))
    assert ceil_norm(L1, (F(1, 2), F(1, 2))) == 1
    assert ceil_norm(LINF, (F(0), F(0))) == 0
    assert ceil_norm(POLY_CROSS, (F(2), F(-3))) == 2
    with pytest.raises(InputError):
        ceil_norm(parse_norm("lp:2"), (F(1), F(1)))


def test_ceil_norm_zero_only_at_zero():
    for spec in (L1, L2, LINF, POLY_CROSS):
        assert ceil_norm(spec, (F(0), F(0))) == 0
        assert ceil_norm(spec, (F(0), F(1, 1000))) >= 1


def test_dual_spec_pairs():
    assert dual_spec(L1).kind == "linf"
    assert dual_spec(LINF).kind == "l1"
    assert dual_spec(L2).kind == "l2"
    with pytest.raises(InputError):
        dual_spec(parse_norm("lp:3"))
    with pytest.raises(UnsupportedNormOperation):
        dual_spec(POLY_CROSS)


def test_dual_eval_examples():
    assert dual_eval(L1, (F(3), F(-4))).value == 4        # sup norm
    assert dual_eval(LINF, (F(3), F(-4))).value == 7
    assert dual_eval(L2, (F(3), F(-4))).value == 25
    with pytest.raises(UnsupportedNormOperation):
        dual_eval(POLY_CROSS, (F(1), F(0)))
    with pytest.raises(InputError):
        dual_eval(parse_norm("lp:3"), (F(3), F(-4)))


def test_dual_witness_examples():
    w = dual_witness(L2, (F(3), F(4)))
    assert w.direction == (F(3), F(4))
    assert w.scale.kind == "squared" and w.scale.value == 25

    w = dual_witness(L1, (F(3), F(-4)))
    assert w.direction == (F(1), F(-1))
    assert w.scale.value == 1
    assert dot((F(3), F(-4)), w.direction) == 7

    w = dual_witness(L1, (F(0), F(5)))        # sign(0) = +1
    assert w.direction == (F(1), F(1))

    w = dual_witness(LINF, (F(2), F(-3)))
    assert w.direction == (F(0), F(-1))

    w = dual_witness(POLY_CROSS, (F(2), F(-3)))
    assert w.direction == (F(1), F(0))


def test_dual_witness_linf_tie_breaks_to_smallest_index():
    assert dual_witness(LINF, (F(2), F(-2))).direction == (F(1), F(0))
    assert dual_witness(LINF, (F(-2), F(2))).direction == (F(-1), F(0))
    assert dual_witness(LINF, (F(1), F(2), F(-2))).direction == (F(0), F(1), F(0))


def test_dual_witness_rejects_zero_and_float_mode():
    with pytest.raises(InputError):
        dual_witness(L2, (F(0), F(0)))
    with pytest.raises(InputError):           # lp is rejected as text
        dual_witness(parse_norm("lp:2"), (F(1), F(0)))


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_holder_inequality_holds(spec, pair):
    x, u = pair
    assert holder_check(spec, x, u)


def test_holder_check_rejects_unsupported():
    with pytest.raises(UnsupportedNormOperation):
        holder_check(POLY_CROSS, (F(1), F(0)), (F(0), F(1)))
    with pytest.raises(InputError):
        holder_check(parse_norm("lp:2"), (F(1), F(0)), (F(0), F(1)))


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_double_dual_reproduces_norm(spec, pair):
    x, _ = pair
    assert double_dual_check(spec, x)


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_dual_witness_attains_the_norm(spec, pair):
    x, _ = pair
    if all(c == 0 for c in x):
        return
    assert witness_attains(spec, x)


@pytest.mark.parametrize("spec", [L1, L2, LINF])
@given(pair=vector_pairs())
def test_dual_witness_lies_in_dual_ball(spec, pair):
    x, _ = pair
    if all(c == 0 for c in x):
        return
    w = dual_witness(spec, x)
    nw = dual_eval(spec, w.direction)
    # ||w||_* <= s; for l2 both sides are carried as exact squares, for
    # l1/linf both are plain rationals, so the raw values compare directly.
    assert nw.kind == w.scale.kind
    assert nw.value <= w.scale.value


@given(pair=vector_pairs(min_d=2, max_d=2))
def test_polyhedral_witness_dominated_by_norm(pair):
    # No closed-form dual for facet norms; the witness certificate is
    # |<u, w>| <= ||u|| * s for every u, checked here on samples.
    x, u = pair
    if all(c == 0 for c in x):
        return
    w = dual_witness(POLY_CROSS, x)
    assert witness_attains(POLY_CROSS, x)
    assert abs(dot(u, w.direction)) <= norm_eval(POLY_CROSS, u).value * w.scale.value


def test_norm_text_round_trips():
    for spec in (L1, L2, LINF,
                 NormSpec.polyhedral([(1, 0), (0, 1), (1, 1)]),
                 NormSpec.polyhedral([(F(1, 2), F(-1, 3)), (0, 2)])):
        assert parse_norm(format_norm(spec)) == spec
    assert format_norm(L1) == "l1"
    with pytest.raises(InputError):
        parse_norm("lp:3/2")
    assert format_norm(NormSpec.polyhedral([(1, 0), (1, 1)])) == "poly:[1,0;1,1]"
    assert parse_norm("  l2 ") == L2
    assert parse_norm("poly:[1,0;0,1]") == NormSpec.polyhedral([(1, 0), (0, 1)])


def test_norm_text_rejects_empty_functionals():
    # An empty functional is an error, not a row to skip.
    for bad in ("poly:[1,0;;0,1]", "poly:[1,0;0,1;]", "poly:[;1,0;0,1]",
                "poly:[1,0; ;0,1]"):
        with pytest.raises(InputError, match="empty functional"):
            parse_norm(bad)


@pytest.mark.parametrize("bad", ["l3", "lp:1", "lp:0", "lp:abc", "lp:2",
                                 "lp:3/2", "poly:",
                                 "poly:[]", "poly:[1,0]", "poly:(1,0;0,1)",
                                 "", "linf2"])
def test_norm_text_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_norm(bad)


POLY_FRAC = NormSpec.polyhedral([(F(1, 2), 0), (F(1, 3), F(2, 3))])


@pytest.mark.parametrize("spec", [L1, L2, LINF, POLY_CROSS, POLY_FRAC])
@given(ints=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       den=st.integers(min_value=1, max_value=12))
def test_witness_and_ceiling_on_scaled_integers(spec, ints, den):
    # The chain reads the witness and k off the target scaled to
    # integers; both must agree with the rational computation.
    x = tuple(F(c, den) for c in ints)
    assert ceil_norm_over(spec, ints, den) == ceil_norm(spec, x)
    if ints == (0, 0):
        return
    direction = witness_direction(spec, ints)
    w, lam = integer_witness(spec, ints)
    assert all(type(c) is int for c in w)
    assert tuple(F(c, lam) for c in w) == direction
    if spec.kind == "l2":
        assert direction == ints
    else:
        assert direction == dual_witness(spec, x).direction


def test_witness_target_takes_e1_at_zero():
    assert witness_target((0, 0, 0)) == (1, 0, 0)
    assert witness_target((F(0), F(-1))) == (F(0), F(-1))
    # sign(0) = +1: the l1 witness of e_1 is the all-ones vector.
    assert witness_direction(L1, witness_target((0, 0))) == (1, 1)
